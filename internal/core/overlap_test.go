package core

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

// TestOverlapZeroIdentical: the overlap machinery reduces exactly to the
// sequential model at overlap 0.
func TestOverlapZeroIdentical(t *testing.T) {
	a := mustCluster(t, Baseline())
	cfg := Baseline()
	cfg.Overlap = 0
	b := mustCluster(t, cfg)
	if a.AveragePower() != b.AveragePower() || a.PeakPower() != b.PeakPower() {
		t.Error("overlap-0 cluster differs from default")
	}
	if a.NetworkEfficiency() != b.NetworkEfficiency() {
		t.Error("overlap-0 efficiency differs")
	}
}

// TestOverlapRaisesNetworkEfficiency: hiding communication behind compute
// shortens the iteration and reduces network idle time, so the network's
// energy efficiency improves (§3.4: overlap still leaves underutilization,
// just less).
func TestOverlapRaisesNetworkEfficiency(t *testing.T) {
	seq := mustCluster(t, Baseline())
	cfg := Baseline()
	cfg.Overlap = 0.5
	ov := mustCluster(t, cfg)
	if ov.NetworkEfficiency() <= seq.NetworkEfficiency() {
		t.Errorf("overlap efficiency %v should exceed sequential %v",
			ov.NetworkEfficiency(), seq.NetworkEfficiency())
	}
	// Iteration shortens: 1.0 -> 0.95.
	if math.Abs(float64(ov.Schedule().Total())-0.95) > 1e-12 {
		t.Errorf("overlapped iteration = %v, want 0.95", ov.Schedule().Total())
	}
	// The network still idles 85/95 of the time — underutilization remains.
	sched := ov.Schedule()
	if share := float64(sched.ComputeOnly / sched.Total()); math.Abs(share-0.85/0.95) > 1e-9 {
		t.Errorf("network idle share = %v", share)
	}
}

// TestOverlapPeakPower: with overlap, the peak segment runs compute AND
// network at max simultaneously — higher than either sequential phase.
func TestOverlapPeakPower(t *testing.T) {
	cfg := Baseline()
	cfg.Overlap = 0.5
	ov := mustCluster(t, cfg)
	seq := mustCluster(t, Baseline())
	if ov.PeakPower() <= seq.PeakPower() {
		t.Errorf("overlap peak %v should exceed sequential %v", ov.PeakPower(), seq.PeakPower())
	}
	want := ov.ComputeMaxPower() + ov.NetworkMaxPower()
	if math.Abs(float64(ov.PeakPower()-want)) > 1 {
		t.Errorf("overlap peak = %v, want compute+network max %v", ov.PeakPower(), want)
	}
}

// TestOverlapSavingsPersist: proportionality still pays off under overlap —
// the paper's point that the savings case survives relaxing the no-overlap
// assumption.
func TestOverlapSavingsPersist(t *testing.T) {
	for _, overlap := range []float64{0, 0.5, 1} {
		base := Baseline()
		base.Overlap = overlap
		ref := mustCluster(t, base)
		better := base
		better.NetworkProportionality = 0.85
		imp := mustCluster(t, better)
		savings := float64(ref.AveragePower()-imp.AveragePower()) / float64(ref.AveragePower())
		if savings < 0.05 {
			t.Errorf("overlap %v: savings at 85%% proportionality = %v, want > 5%%", overlap, savings)
		}
	}
}

// TestOverlapAverageBarDecomposes: the Fig. 2a average bar still sums to
// the average power with an overlapped segment present.
func TestOverlapAverageBarDecomposes(t *testing.T) {
	cfg := Baseline()
	cfg.Overlap = 0.6
	cl := mustCluster(t, cfg)
	avg := cl.Fig2a()[1]
	if math.Abs(float64(avg.Total-cl.AveragePower())) > 1e-3 {
		t.Errorf("average bar total %v != average power %v", avg.Total, cl.AveragePower())
	}
	var sum float64
	for _, p := range avg.Active {
		sum += float64(p)
	}
	sum += float64(avg.Idle)
	if math.Abs(sum-float64(avg.Total)) > 1e-3 {
		t.Error("average bar does not decompose under overlap")
	}
}

func TestOverlapValidation(t *testing.T) {
	cfg := Baseline()
	cfg.Overlap = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("overlap > 1 accepted")
	}
	cfg = Baseline()
	cfg.Overlap = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative overlap accepted")
	}
}

// Property: average power is monotone non-increasing in overlap for a
// fixed configuration — hiding communication never costs energy per unit
// time beyond the busy-time conservation (it shortens idle tails), and
// energy per iteration strictly drops.
func TestOverlapEnergyMonotone(t *testing.T) {
	f := func(aRaw, bRaw float64) bool {
		a := math.Abs(math.Mod(aRaw, 1.0))
		b := math.Abs(math.Mod(bRaw, 1.0))
		if a > b {
			a, b = b, a
		}
		cfgA, cfgB := Baseline(), Baseline()
		cfgA.Overlap, cfgB.Overlap = a, b
		ca, err1 := New(cfgA)
		cb, err2 := New(cfgB)
		if err1 != nil || err2 != nil {
			return false
		}
		ea := float64(ca.EnergyPerIteration())
		eb := float64(cb.EnergyPerIteration())
		return eb <= ea+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOverlapEnergyAccounting: energy per iteration equals the sum of
// segment energies computed by hand.
func TestOverlapEnergyAccounting(t *testing.T) {
	cfg := Baseline()
	cfg.Overlap = 0.5
	cl := mustCluster(t, cfg)
	s := cl.Schedule()
	var want float64
	want += float64(cl.segmentTotal(true, false)) * float64(s.ComputeOnly)
	want += float64(cl.segmentTotal(true, true)) * float64(s.Overlapped)
	want += float64(cl.segmentTotal(false, true)) * float64(s.CommOnly)
	got := float64(cl.EnergyPerIteration())
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("energy = %v, want %v", got, want)
	}
	_ = units.Joule
}
