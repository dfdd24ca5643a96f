package netsim

import (
	"fmt"

	"netpowerprop/internal/power"
	"netpowerprop/internal/units"
)

// Segment is a span of constant rate on a link or through a switch.
type Segment struct {
	Start, End units.Seconds
	Rate       units.Bandwidth
}

// Duration returns the segment length.
func (s Segment) Duration() units.Seconds { return s.End - s.Start }

// Trace is a contiguous, time-ordered sequence of segments. A simulated
// trace never holds two adjacent segments at the same rate.
type Trace []Segment

// At returns the rate at time x (0 outside the trace).
func (t Trace) At(x units.Seconds) units.Bandwidth {
	for _, s := range t {
		if x >= s.Start && x < s.End {
			return s.Rate
		}
	}
	return 0
}

// Duration returns the covered time span.
func (t Trace) Duration() units.Seconds {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].End - t[0].Start
}

// MeanRate returns the time-weighted average rate.
func (t Trace) MeanRate() units.Bandwidth {
	d := t.Duration()
	if d == 0 {
		return 0
	}
	var acc float64
	for _, s := range t {
		acc += float64(s.Rate) * float64(s.Duration())
	}
	return units.Bandwidth(acc / float64(d))
}

// PeakRate returns the maximum rate.
func (t Trace) PeakRate() units.Bandwidth {
	var p units.Bandwidth
	for _, s := range t {
		if s.Rate > p {
			p = s.Rate
		}
	}
	return p
}

// BusyTime returns how long the rate was non-zero.
func (t Trace) BusyTime() units.Seconds {
	var d units.Seconds
	for _, s := range t {
		if s.Rate > 0 {
			d += s.Duration()
		}
	}
	return d
}

// Utilization returns the mean rate over the capacity, in [0,1] when the
// trace respects the capacity.
func (t Trace) Utilization(capacity units.Bandwidth) float64 {
	if capacity <= 0 {
		return 0
	}
	return float64(t.MeanRate()) / float64(capacity)
}

// Validate checks the trace is time-ordered, gap-free, and non-negative.
func (t Trace) Validate() error {
	for i, s := range t {
		if s.End <= s.Start {
			return fmt.Errorf("netsim: segment %d empty or reversed [%v,%v]", i, s.Start, s.End)
		}
		if s.Rate < 0 {
			return fmt.Errorf("netsim: segment %d negative rate %v", i, s.Rate)
		}
		if i > 0 && t[i-1].End != s.Start {
			return fmt.Errorf("netsim: gap between segment %d and %d (%v != %v)", i-1, i, t[i-1].End, s.Start)
		}
	}
	return nil
}

// PowerLaw maps a device's instantaneous utilization to power; the §4
// mechanisms provide richer stateful models, while these two cover the
// baseline hardware behaviors.
type PowerLaw int

const (
	// TwoState draws max power at any non-zero utilization and idle power
	// otherwise (the paper's §2.3 assumption).
	TwoState PowerLaw = iota
	// Linear ramps between idle and max with utilization (an idealized
	// fully rate-adaptive device).
	Linear
)

// Energy integrates a device power model over a utilization trace.
// capacity scales the rate into a utilization for the Linear law. The
// per-segment rule is segmentPower, shared with SegmentEnergy so the
// co-sim echo model reproduces these energies bit-for-bit.
func (t Trace) Energy(m power.Model, capacity units.Bandwidth, law PowerLaw) (units.Energy, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	var e units.Energy
	for _, s := range t {
		p, err := segmentPower(m, capacity, law, s.Rate)
		if err != nil {
			return 0, err
		}
		e += units.EnergyOver(p, s.Duration())
	}
	return e, nil
}

var errLinearNeedsCapacity = fmt.Errorf("netsim: linear law needs positive capacity")

func errUnknownPowerLaw(law PowerLaw) error {
	return fmt.Errorf("netsim: unknown power law %d", law)
}
