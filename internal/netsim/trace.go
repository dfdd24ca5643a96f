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
