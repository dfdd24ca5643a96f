// Package traffic generates the synthetic offered loads the mechanism
// simulators run on: ML training jobs with periodic compute/communicate
// iterations (the paper's §2.2 pattern, matching the predictable traffic
// CASSINI reports), collective-communication flow patterns (ring allreduce,
// all-to-all), and ISP-style diurnal load profiles (§3.4).
package traffic

import (
	"fmt"
	"math"

	"netpowerprop/internal/units"
)

// Flow is one unidirectional demand between two hosts over a time window.
type Flow struct {
	Src, Dst int
	// Demand is the offered rate; the simulator may deliver less under
	// contention.
	Demand units.Bandwidth
	Start  units.Seconds
	End    units.Seconds
}

// Duration returns the flow's lifetime.
func (f Flow) Duration() units.Seconds { return f.End - f.Start }

// Pattern selects the collective-communication shape of a job's
// communication phase.
type Pattern int

const (
	// Ring sends host i -> host i+1 (mod n): the classic ring allreduce.
	Ring Pattern = iota
	// AllToAll sends every host to every other host.
	AllToAll
	// Neighbor sends host 2i <-> 2i+1 pairs (tensor-parallel style).
	Neighbor
	// Hierarchical runs a ring within each group of GroupSize hosts plus a
	// ring among the group leaders — the two-level allreduce large training
	// jobs use to keep most traffic rack-local.
	Hierarchical
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Ring:
		return "ring"
	case AllToAll:
		return "alltoall"
	case Neighbor:
		return "neighbor"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Job is a training job: a set of hosts iterating compute/communicate with
// a fixed period, emitting collective flows during each communication
// window.
type Job struct {
	ID    int
	Hosts []int
	// Period is the iteration time; CommRatio the communication share of
	// it (§2.2).
	Period    units.Seconds
	CommRatio float64
	// Rate is each flow's offered rate during the communication window.
	Rate units.Bandwidth
	// Pattern shapes the communication phase.
	Pattern Pattern
	// Offset delays the first iteration (jobs need not be synchronized;
	// CASSINI interleaves them deliberately).
	Offset units.Seconds
	// GroupSize sets the intra-group ring width for the Hierarchical
	// pattern (ignored otherwise). Must divide into at least two groups.
	GroupSize int
}

// Validate checks the job's parameters.
func (j Job) Validate() error {
	if len(j.Hosts) < 2 {
		return fmt.Errorf("traffic: job %d needs at least 2 hosts, has %d", j.ID, len(j.Hosts))
	}
	if j.Period <= 0 {
		return fmt.Errorf("traffic: job %d period %v must be positive", j.ID, j.Period)
	}
	if j.CommRatio <= 0 || j.CommRatio >= 1 {
		return fmt.Errorf("traffic: job %d comm ratio %v outside (0,1)", j.ID, j.CommRatio)
	}
	if j.Rate <= 0 {
		return fmt.Errorf("traffic: job %d rate %v must be positive", j.ID, j.Rate)
	}
	if j.Offset < 0 {
		return fmt.Errorf("traffic: job %d negative offset %v", j.ID, j.Offset)
	}
	switch j.Pattern {
	case Ring, AllToAll, Neighbor:
	case Hierarchical:
		if j.GroupSize < 2 || j.GroupSize >= len(j.Hosts) {
			return fmt.Errorf("traffic: job %d hierarchical group size %d outside [2,%d)", j.ID, j.GroupSize, len(j.Hosts))
		}
		if len(j.Hosts)%j.GroupSize != 0 {
			return fmt.Errorf("traffic: job %d host count %d not divisible by group size %d", j.ID, len(j.Hosts), j.GroupSize)
		}
	default:
		return fmt.Errorf("traffic: job %d unknown pattern %v", j.ID, j.Pattern)
	}
	return nil
}

// pairs returns the (src,dst) index pairs of one communication round.
func (j Job) pairs() [][2]int {
	n := len(j.Hosts)
	var out [][2]int
	switch j.Pattern {
	case Ring:
		for i := 0; i < n; i++ {
			out = append(out, [2]int{i, (i + 1) % n})
		}
	case AllToAll:
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				if i != k {
					out = append(out, [2]int{i, k})
				}
			}
		}
	case Neighbor:
		for i := 0; i+1 < n; i += 2 {
			out = append(out, [2]int{i, i + 1}, [2]int{i + 1, i})
		}
	case Hierarchical:
		g := j.GroupSize
		groups := n / g
		// Intra-group rings (skipped for trivial 1-wide groups by the
		// validator's g >= 2 bound).
		for grp := 0; grp < groups; grp++ {
			base := grp * g
			for i := 0; i < g; i++ {
				out = append(out, [2]int{base + i, base + (i+1)%g})
			}
		}
		// Leader ring across groups (leader = first host of each group).
		for grp := 0; grp < groups; grp++ {
			out = append(out, [2]int{grp * g, ((grp + 1) % groups) * g})
		}
	}
	return out
}

// Flows expands the job into flows for the given number of iterations. The
// communication window sits at the end of each period, mirroring Fig. 1's
// compute-then-communicate structure.
func (j Job) Flows(iterations int) ([]Flow, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if iterations < 1 {
		return nil, fmt.Errorf("traffic: job %d iterations %d must be positive", j.ID, iterations)
	}
	commLen := units.Seconds(float64(j.Period) * j.CommRatio)
	pairs := j.pairs()
	flows := make([]Flow, 0, iterations*len(pairs))
	for it := 0; it < iterations; it++ {
		start := j.Offset + units.Seconds(it)*j.Period + (j.Period - commLen)
		for _, p := range pairs {
			flows = append(flows, Flow{
				Src:    j.Hosts[p[0]],
				Dst:    j.Hosts[p[1]],
				Demand: j.Rate,
				Start:  start,
				End:    start + commLen,
			})
		}
	}
	return flows, nil
}

// Matrix returns the job's steady traffic matrix (average offered rate
// between host pairs over one period) — the input to OCS topology
// tailoring (§4.2).
func (j Job) Matrix() (*Matrix, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	m := NewMatrix()
	for _, p := range j.pairs() {
		avg := units.Bandwidth(float64(j.Rate) * j.CommRatio)
		m.Add(j.Hosts[p[0]], j.Hosts[p[1]], avg)
	}
	return m, nil
}

// Matrix is a sparse host-to-host demand matrix.
type Matrix struct {
	demand map[[2]int]units.Bandwidth
}

// NewMatrix returns an empty matrix.
func NewMatrix() *Matrix {
	return &Matrix{demand: make(map[[2]int]units.Bandwidth)}
}

// Add accumulates demand from src to dst.
func (m *Matrix) Add(src, dst int, d units.Bandwidth) {
	if d == 0 || src == dst {
		return
	}
	m.demand[[2]int{src, dst}] += d
}

// Demand returns the demand from src to dst.
func (m *Matrix) Demand(src, dst int) units.Bandwidth {
	return m.demand[[2]int{src, dst}]
}

// Pairs visits every non-zero entry.
func (m *Matrix) Pairs(visit func(src, dst int, d units.Bandwidth)) {
	for k, v := range m.demand {
		visit(k[0], k[1], v)
	}
}

// Len returns the number of non-zero entries.
func (m *Matrix) Len() int { return len(m.demand) }

// Profile is a time-varying offered utilization in [0,1], used for
// link-level studies (EEE, rate adaptation) where individual flows matter
// less than the load envelope.
type Profile func(t units.Seconds) float64

// Diurnal returns an ISP-style day/night load curve: utilization oscillates
// sinusoidally between trough and peak over the period (§3.4's "customers
// expect capacity to be there, but will not be using it 24/7").
func Diurnal(trough, peak float64, period units.Seconds) (Profile, error) {
	if trough < 0 || peak > 1 || trough > peak {
		return nil, fmt.Errorf("traffic: diurnal bounds [%v,%v] invalid", trough, peak)
	}
	if period <= 0 {
		return nil, fmt.Errorf("traffic: diurnal period %v must be positive", period)
	}
	mid := (trough + peak) / 2
	amp := (peak - trough) / 2
	return func(t units.Seconds) float64 {
		// Trough at t=0, peak at period/2.
		return mid - amp*math.Cos(2*math.Pi*float64(t)/float64(period))
	}, nil
}

// MLPeriodic returns the square-wave load of a training iteration: zero
// during computation, full rate during the communication window at the end
// of each period.
func MLPeriodic(commRatio float64, period units.Seconds, level float64) (Profile, error) {
	if commRatio <= 0 || commRatio >= 1 {
		return nil, fmt.Errorf("traffic: comm ratio %v outside (0,1)", commRatio)
	}
	if period <= 0 {
		return nil, fmt.Errorf("traffic: period %v must be positive", period)
	}
	if level < 0 || level > 1 {
		return nil, fmt.Errorf("traffic: level %v outside [0,1]", level)
	}
	return func(t units.Seconds) float64 {
		phase := math.Mod(float64(t), float64(period)) / float64(period)
		if phase >= 1-commRatio {
			return level
		}
		return 0
	}, nil
}

// Sample evaluates a profile at a fixed step over [0, horizon), returning
// (times, values); used to drive the link-level simulators.
func Sample(p Profile, horizon, step units.Seconds) ([]units.Seconds, []float64, error) {
	if horizon <= 0 || step <= 0 {
		return nil, nil, fmt.Errorf("traffic: horizon %v and step %v must be positive", horizon, step)
	}
	n := int(math.Ceil(float64(horizon) / float64(step)))
	ts := make([]units.Seconds, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = units.Seconds(i) * step
		vs[i] = p(ts[i])
	}
	return ts, vs, nil
}
