// Package workload implements the paper's training-workload model (§2.2,
// Fig. 1): an iteration is one computation phase followed by one
// communication phase with no overlap; GPUs run at full speed while the
// network idles, and vice versa. The total workload is constant as the
// cluster scales, execution time scales linearly with resources, and the
// communication ratio is the communication share of the iteration time.
package workload

import (
	"fmt"

	"netpowerprop/internal/units"
)

// Workload is a fixed amount of training work, expressed as the phase
// durations measured on a reference cluster (a GPU count and a per-GPU
// network bandwidth). Scaling the cluster rescales the phases linearly.
type Workload struct {
	// ComputeTime is the computation-phase duration on RefGPUs GPUs.
	ComputeTime units.Seconds
	// CommTime is the communication-phase duration at RefBandwidth per GPU.
	CommTime units.Seconds
	// RefGPUs is the GPU count the times were measured on.
	RefGPUs int
	// RefBandwidth is the per-GPU network bandwidth the times were
	// measured at.
	RefBandwidth units.Bandwidth
}

// New validates and builds a Workload.
func New(computeTime, commTime units.Seconds, refGPUs int, refBandwidth units.Bandwidth) (Workload, error) {
	if computeTime < 0 || commTime < 0 {
		return Workload{}, fmt.Errorf("workload: negative phase duration (compute=%v, comm=%v)", computeTime, commTime)
	}
	if computeTime == 0 && commTime == 0 {
		return Workload{}, fmt.Errorf("workload: empty iteration")
	}
	if refGPUs < 1 {
		return Workload{}, fmt.Errorf("workload: reference GPU count %d must be positive", refGPUs)
	}
	if refBandwidth <= 0 {
		return Workload{}, fmt.Errorf("workload: reference bandwidth %v must be positive", refBandwidth)
	}
	return Workload{ComputeTime: computeTime, CommTime: commTime, RefGPUs: refGPUs, RefBandwidth: refBandwidth}, nil
}

// CommRatio returns the communication ratio at the reference configuration:
// communication time divided by iteration time (§2.2).
func (w Workload) CommRatio() float64 {
	total := float64(w.ComputeTime + w.CommTime)
	if total == 0 {
		return 0
	}
	return float64(w.CommTime) / total
}

// Iteration is one concrete compute+communicate cycle on a specific cluster.
type Iteration struct {
	Compute units.Seconds
	Comm    units.Seconds
}

// Total returns the iteration time.
func (it Iteration) Total() units.Seconds { return it.Compute + it.Comm }

// CommRatio returns the communication share of this iteration.
func (it Iteration) CommRatio() float64 {
	if it.Total() == 0 {
		return 0
	}
	return float64(it.Comm) / float64(it.Total())
}

// On scales the fixed workload onto a cluster with the given GPU count and
// per-GPU bandwidth: computation time scales inversely with GPUs, and
// communication time inversely with bandwidth (Fig. 1).
func (w Workload) On(gpus int, bandwidth units.Bandwidth) (Iteration, error) {
	if gpus < 1 {
		return Iteration{}, fmt.Errorf("workload: GPU count %d must be positive", gpus)
	}
	if bandwidth <= 0 {
		return Iteration{}, fmt.Errorf("workload: bandwidth %v must be positive", bandwidth)
	}
	return Iteration{
		Compute: w.ComputeTime * units.Seconds(float64(w.RefGPUs)/float64(gpus)),
		Comm:    w.CommTime * units.Seconds(float64(w.RefBandwidth)/float64(bandwidth)),
	}, nil
}

// WithFixedRatio returns the iteration on a cluster where the communication
// workload grows with the network speed so that the communication ratio
// stays pinned (the paper's second evaluation scenario, §3.3): computation
// scales with GPUs, and communication is set to ratio/(1−ratio) of it.
func (w Workload) WithFixedRatio(gpus int, ratio float64) (Iteration, error) {
	if gpus < 1 {
		return Iteration{}, fmt.Errorf("workload: GPU count %d must be positive", gpus)
	}
	if ratio < 0 || ratio >= 1 {
		return Iteration{}, fmt.Errorf("workload: communication ratio %v outside [0,1)", ratio)
	}
	compute := w.ComputeTime * units.Seconds(float64(w.RefGPUs)/float64(gpus))
	return Iteration{
		Compute: compute,
		Comm:    units.Seconds(float64(compute) * ratio / (1 - ratio)),
	}, nil
}

// Baseline returns the paper's baseline workload (§2.1): a unit iteration
// with a 10% communication ratio measured on 15,360 GPUs at 400 Gbps.
func Baseline() Workload {
	return Workload{
		ComputeTime:  0.9,
		CommTime:     0.1,
		RefGPUs:      15360,
		RefBandwidth: 400 * units.Gbps,
	}
}

// Fig1Row is one line of the paper's Fig. 1: a scaling scenario and the
// resulting iteration.
type Fig1Row struct {
	Label     string
	Iteration Iteration
}

// Fig1 reproduces the paper's Fig. 1 on a 20%-communication-ratio unit
// iteration: the reference run, a 2×-GPU run (computation halves), and a
// 0.5×-bandwidth run (communication doubles).
func Fig1() []Fig1Row {
	w := Workload{ComputeTime: 0.8, CommTime: 0.2, RefGPUs: 1000, RefBandwidth: 400 * units.Gbps}
	ref, _ := w.On(w.RefGPUs, w.RefBandwidth)
	gpus2x, _ := w.On(2*w.RefGPUs, w.RefBandwidth)
	bwHalf, _ := w.On(w.RefGPUs, w.RefBandwidth/2)
	return []Fig1Row{
		{Label: "baseline", Iteration: ref},
		{Label: "2x GPUs", Iteration: gpus2x},
		{Label: "0.5x BW", Iteration: bwHalf},
	}
}
