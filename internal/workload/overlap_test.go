package workload

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

func TestWithOverlapZeroMatchesSequential(t *testing.T) {
	it := Iteration{Compute: 0.9, Comm: 0.1}
	s, err := it.WithOverlap(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ComputeOnly != 0.9 || s.Overlapped != 0 || s.CommOnly != 0.1 {
		t.Errorf("overlap 0 schedule = %+v", s)
	}
	if s.Total() != it.Total() {
		t.Errorf("total changed: %v vs %v", s.Total(), it.Total())
	}
}

func TestWithOverlapHalf(t *testing.T) {
	it := Iteration{Compute: 0.9, Comm: 0.1}
	s, err := it.WithOverlap(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s.Overlapped)-0.05) > 1e-12 {
		t.Errorf("overlapped = %v, want 0.05", s.Overlapped)
	}
	if math.Abs(float64(s.ComputeOnly)-0.85) > 1e-12 {
		t.Errorf("compute-only = %v, want 0.85", s.ComputeOnly)
	}
	if math.Abs(float64(s.CommOnly)-0.05) > 1e-12 {
		t.Errorf("comm-only = %v, want 0.05", s.CommOnly)
	}
	// Overlap shortens the iteration: 1.0 -> 0.95.
	if math.Abs(float64(s.Total())-0.95) > 1e-12 {
		t.Errorf("total = %v, want 0.95", s.Total())
	}
	// Busy times are conserved: compute still works 0.9, network 0.1.
	if busy := s.ComputeOnly + s.Overlapped; math.Abs(float64(busy)-0.9) > 1e-12 {
		t.Errorf("compute busy = %v, want 0.9", busy)
	}
	if busy := s.Overlapped + s.CommOnly; math.Abs(float64(busy)-0.1) > 1e-12 {
		t.Errorf("network busy = %v, want 0.1", busy)
	}
}

func TestWithOverlapFull(t *testing.T) {
	it := Iteration{Compute: 0.9, Comm: 0.1}
	s, err := it.WithOverlap(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.CommOnly != 0 || math.Abs(float64(s.Total())-0.9) > 1e-12 {
		t.Errorf("full overlap schedule = %+v", s)
	}
}

func TestWithOverlapValidation(t *testing.T) {
	it := Iteration{Compute: 0.9, Comm: 0.1}
	if _, err := it.WithOverlap(-0.1); err == nil {
		t.Error("negative overlap accepted")
	}
	if _, err := it.WithOverlap(1.1); err == nil {
		t.Error("overlap > 1 accepted")
	}
	// Communication longer than computation cannot fully hide.
	long := Iteration{Compute: 0.1, Comm: 0.9}
	if _, err := long.WithOverlap(1); err == nil {
		t.Error("impossible overlap accepted")
	}
	if _, err := long.WithOverlap(0.1); err != nil {
		t.Error("feasible partial overlap rejected")
	}
}

func TestSchedulePhases(t *testing.T) {
	s := Schedule{ComputeOnly: 0.85, Overlapped: 0.05, CommOnly: 0.05}
	cp := s.ComputePhases()
	if !cp[0].Busy || !cp[1].Busy || cp[2].Busy {
		t.Errorf("compute phases = %+v", cp)
	}
	np := s.NetworkPhases()
	if np[0].Busy || !np[1].Busy || !np[2].Busy {
		t.Errorf("network phases = %+v", np)
	}
	var cpd, npd units.Seconds
	for i := range cp {
		cpd += cp[i].Duration
		npd += np[i].Duration
	}
	if cpd != s.Total() || npd != s.Total() {
		t.Error("phase durations do not cover the schedule")
	}
}

// Property: overlap conserves busy time and never lengthens the iteration;
// more overlap means less network idle share.
func TestOverlapInvariants(t *testing.T) {
	it := Iteration{Compute: 0.9, Comm: 0.1}
	f := func(aRaw, bRaw float64) bool {
		a := math.Abs(math.Mod(aRaw, 1.0))
		b := math.Abs(math.Mod(bRaw, 1.0))
		if a > b {
			a, b = b, a
		}
		sa, err1 := it.WithOverlap(a)
		sb, err2 := it.WithOverlap(b)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(float64(sa.ComputeOnly+sa.Overlapped-it.Compute)) > 1e-12 ||
			math.Abs(float64(sa.Overlapped+sa.CommOnly-it.Comm)) > 1e-12 {
			return false
		}
		idleShare := func(s Schedule) float64 { return float64(s.ComputeOnly) / float64(s.Total()) }
		return sb.Total() <= sa.Total()+1e-12 &&
			idleShare(sb) <= idleShare(sa)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
