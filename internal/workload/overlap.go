package workload

import (
	"fmt"

	"netpowerprop/internal/power"
	"netpowerprop/internal/units"
)

// Schedule is an iteration laid out as up to three segments: compute-only,
// overlapped (both compute and network busy), and communication-only. It
// generalizes the paper's no-overlap assumption (§2.2, footnote 1) to the
// §3.4 relaxation where some training schemes overlap computation and
// communication — there is then still network underutilization, just less
// of it.
type Schedule struct {
	ComputeOnly units.Seconds
	Overlapped  units.Seconds
	CommOnly    units.Seconds
}

// Total returns the iteration time under the schedule.
func (s Schedule) Total() units.Seconds { return s.ComputeOnly + s.Overlapped + s.CommOnly }

// ComputePhases returns the compute hardware's phase schedule.
func (s Schedule) ComputePhases() []power.Phase {
	return []power.Phase{
		{Duration: s.ComputeOnly, Busy: true},
		{Duration: s.Overlapped, Busy: true},
		{Duration: s.CommOnly, Busy: false},
	}
}

// NetworkPhases returns the network hardware's phase schedule.
func (s Schedule) NetworkPhases() []power.Phase {
	return []power.Phase{
		{Duration: s.ComputeOnly, Busy: false},
		{Duration: s.Overlapped, Busy: true},
		{Duration: s.CommOnly, Busy: true},
	}
}

// WithOverlap converts an iteration into a schedule where the given
// fraction of the communication phase is hidden behind computation.
// overlap = 0 reproduces the paper's sequential model; overlap = 1 hides
// communication entirely (bounded by the computation time — communication
// cannot hide behind compute that is not running).
func (it Iteration) WithOverlap(overlap float64) (Schedule, error) {
	if overlap < 0 || overlap > 1 {
		return Schedule{}, fmt.Errorf("workload: overlap %v outside [0,1]", overlap)
	}
	hidden := units.Seconds(overlap * float64(it.Comm))
	if hidden > it.Compute {
		return Schedule{}, fmt.Errorf("workload: overlapped communication %v exceeds computation %v",
			hidden, it.Compute)
	}
	return Schedule{
		ComputeOnly: it.Compute - hidden,
		Overlapped:  hidden,
		CommOnly:    it.Comm - hidden,
	}, nil
}
