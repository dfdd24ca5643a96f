package core

import (
	"fmt"

	"netpowerprop/internal/device"
	"netpowerprop/internal/units"
	"netpowerprop/internal/workload"
)

// Sensitivity analysis: how the paper's headline results (network power
// share, network efficiency, and the 50%-proportionality savings) move
// when the model's assumptions are perturbed. The paper fixes several
// inputs from datasheets and one production report; this quantifies which
// of them the conclusions actually depend on.

// Assumption identifies one perturbable model input.
type Assumption int

// The perturbable assumptions.
const (
	// AssumeCommRatio varies the workload's communication ratio (paper:
	// 10% from the Alibaba pod).
	AssumeCommRatio Assumption = iota
	// AssumeServerOverhead varies the per-GPU server share (paper: 100 W,
	// i.e. 800 W per 8-GPU server).
	AssumeServerOverhead
	// AssumeSwitchPower varies the switch max power (paper: 750 W).
	AssumeSwitchPower
	// AssumeComputeProportionality varies the server proportionality
	// (paper: 85%).
	AssumeComputeProportionality
	// AssumeNetworkProportionality varies today's network proportionality
	// (paper: 10%, literature range 5–20%).
	AssumeNetworkProportionality
)

// String names the assumption.
func (a Assumption) String() string {
	switch a {
	case AssumeCommRatio:
		return "communication ratio"
	case AssumeServerOverhead:
		return "server overhead per GPU"
	case AssumeSwitchPower:
		return "switch max power"
	case AssumeComputeProportionality:
		return "compute proportionality"
	case AssumeNetworkProportionality:
		return "network proportionality"
	default:
		return fmt.Sprintf("Assumption(%d)", int(a))
	}
}

// SensitivityPoint is one evaluated perturbation.
type SensitivityPoint struct {
	Assumption Assumption
	// Value is the perturbed input value (in the assumption's natural
	// unit: a ratio, watts, or a proportionality).
	Value float64
	// NetworkShare, NetworkEfficiency are §3.1's headline metrics.
	NetworkShare      float64
	NetworkEfficiency float64
	// SavingsAt50 is the total-power saving of moving the network from the
	// scenario's proportionality to 50% (Table 3's middle column).
	SavingsAt50 float64
}

// perturbed builds a baseline config with one assumption overridden, along
// with any auxiliary model override the assumption needs.
type perturbed struct {
	cfg Config
	// switchPower overrides device.SwitchMaxPower via scaling the model
	// after construction; handled inside evaluate.
	switchPowerScale float64
	serverOverheadW  float64
}

// Sensitivity evaluates the headline metrics across a sweep of one
// assumption's values. Unlisted inputs stay at the paper's baseline.
func Sensitivity(a Assumption, values []float64) ([]SensitivityPoint, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("core: empty sensitivity sweep")
	}
	out := make([]SensitivityPoint, 0, len(values))
	for _, v := range values {
		p, err := buildPerturbed(a, v)
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity %v=%v: %w", a, v, err)
		}
		pt, err := evaluatePerturbed(a, v, p)
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity %v=%v: %w", a, v, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

func buildPerturbed(a Assumption, v float64) (perturbed, error) {
	p := perturbed{cfg: Baseline(), switchPowerScale: 1, serverOverheadW: 100}
	switch a {
	case AssumeCommRatio:
		if v <= 0 || v >= 1 {
			return p, fmt.Errorf("comm ratio %v outside (0,1)", v)
		}
		wl, err := workload.New(units.Seconds(1-v), units.Seconds(v),
			p.cfg.GPUs, p.cfg.Bandwidth)
		if err != nil {
			return p, err
		}
		p.cfg.Workload = wl
	case AssumeServerOverhead:
		if v < 0 {
			return p, fmt.Errorf("negative server overhead %v", v)
		}
		p.serverOverheadW = v
	case AssumeSwitchPower:
		if v <= 0 {
			return p, fmt.Errorf("non-positive switch power %v", v)
		}
		p.switchPowerScale = v / 750.0
	case AssumeComputeProportionality:
		if v < 0 || v > 1 {
			return p, fmt.Errorf("compute proportionality %v outside [0,1]", v)
		}
		p.cfg.ComputeProportionality = v
	case AssumeNetworkProportionality:
		if v < 0 || v > 1 {
			return p, fmt.Errorf("network proportionality %v outside [0,1]", v)
		}
		p.cfg.NetworkProportionality = v
	default:
		return p, fmt.Errorf("unknown assumption %d", int(a))
	}
	return p, nil
}

// evaluatePerturbed computes the metrics, applying the power-scale
// overrides that Config cannot express by adjusting aggregate powers.
func evaluatePerturbed(a Assumption, v float64, p perturbed) (SensitivityPoint, error) {
	cl, err := New(p.cfg)
	if err != nil {
		return SensitivityPoint{}, err
	}
	adjust := func(c *Cluster) (avg, netAvg, netMax float64) {
		// Reconstruct aggregate powers with the overrides: scale the
		// switch class and swap the GPU unit power.
		gpuMax := float64(c.Config().GPUs) * (float64(device.H100MaxPower) + p.serverOverheadW)
		gpuIdle := gpuMax * (1 - c.Config().ComputeProportionality)
		swMax := float64(c.Model(device.ClassSwitch).Max) * p.switchPowerScale
		nicMax := float64(c.Model(device.ClassNIC).Max)
		xcMax := float64(c.Model(device.ClassTransceiver).Max)
		netMaxW := swMax + nicMax + xcMax
		netIdle := netMaxW * (1 - c.Config().NetworkProportionality)
		it := c.Iteration()
		total := float64(it.Total())
		comp := float64(it.Compute) / total
		comm := float64(it.Comm) / total
		avgW := comp*(gpuMax+netIdle) + comm*(gpuIdle+netMaxW)
		netAvgW := comp*netIdle + comm*netMaxW
		return avgW, netAvgW, netMaxW
	}
	avg, netAvg, netMax := adjust(cl)
	pt := SensitivityPoint{Assumption: a, Value: v}
	if avg > 0 {
		pt.NetworkShare = netAvg / avg
	}
	if netAvg > 0 {
		it := cl.Iteration()
		total := float64(it.Total())
		useful := float64(it.Comm) / total * netMax
		pt.NetworkEfficiency = useful / netAvg
	}
	// Savings of moving the network to 50% proportionality.
	fifty := p.cfg
	fifty.NetworkProportionality = 0.50
	cl50, err := New(fifty)
	if err != nil {
		return pt, err
	}
	avg50, _, _ := adjust(cl50)
	if avg > 0 {
		pt.SavingsAt50 = (avg - avg50) / avg
	}
	return pt, nil
}
