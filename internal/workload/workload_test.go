package workload

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

func TestBaseline(t *testing.T) {
	w := Baseline()
	if math.Abs(w.CommRatio()-0.10) > 1e-12 {
		t.Errorf("baseline comm ratio = %v, want 0.10", w.CommRatio())
	}
	if w.RefGPUs != 15360 {
		t.Errorf("baseline GPUs = %d, want 15360", w.RefGPUs)
	}
	if w.RefBandwidth != 400*units.Gbps {
		t.Errorf("baseline bandwidth = %v, want 400 Gbps", w.RefBandwidth)
	}
	it, err := w.On(w.RefGPUs, w.RefBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(it.Total())-1.0) > 1e-12 {
		t.Errorf("baseline iteration time = %v, want 1.0", it.Total())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 0.1, 100, 400*units.Gbps); err == nil {
		t.Error("negative compute time should fail")
	}
	if _, err := New(0.9, -1, 100, 400*units.Gbps); err == nil {
		t.Error("negative comm time should fail")
	}
	if _, err := New(0, 0, 100, 400*units.Gbps); err == nil {
		t.Error("empty iteration should fail")
	}
	if _, err := New(0.9, 0.1, 0, 400*units.Gbps); err == nil {
		t.Error("zero GPUs should fail")
	}
	if _, err := New(0.9, 0.1, 100, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
	if w, err := New(0.9, 0.1, 100, 400*units.Gbps); err != nil || w.CommRatio() != 0.1 {
		t.Errorf("valid workload rejected: %v", err)
	}
}

// TestFig1Scaling asserts the exact scaling relations of the paper's Fig. 1.
func TestFig1Scaling(t *testing.T) {
	rows := Fig1()
	if len(rows) != 3 {
		t.Fatalf("Fig1 rows = %d, want 3", len(rows))
	}
	base := rows[0].Iteration
	if math.Abs(float64(base.Total())-1.0) > 1e-12 || math.Abs(base.CommRatio()-0.2) > 1e-12 {
		t.Errorf("Fig1 baseline = %+v, want total 1.0 ratio 0.2", base)
	}
	// 2x GPUs: computation halves, communication unchanged.
	g2 := rows[1].Iteration
	if math.Abs(float64(g2.Compute)-0.4) > 1e-12 || math.Abs(float64(g2.Comm)-0.2) > 1e-12 {
		t.Errorf("Fig1 2x GPUs = %+v, want compute 0.4 comm 0.2", g2)
	}
	// 0.5x bandwidth: communication doubles, computation unchanged.
	bh := rows[2].Iteration
	if math.Abs(float64(bh.Compute)-0.8) > 1e-12 || math.Abs(float64(bh.Comm)-0.4) > 1e-12 {
		t.Errorf("Fig1 0.5x BW = %+v, want compute 0.8 comm 0.4", bh)
	}
}

func TestOnScaling(t *testing.T) {
	w := Baseline()
	// 2x bandwidth halves communication: ratio becomes 0.1/(0.9+0.05)... i.e.
	// comm 0.05.
	it, err := w.On(15360, 800*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(it.Comm)-0.05) > 1e-12 {
		t.Errorf("comm at 800G = %v, want 0.05", it.Comm)
	}
	if math.Abs(float64(it.Compute)-0.9) > 1e-12 {
		t.Errorf("compute unchanged = %v, want 0.9", it.Compute)
	}
	// Quarter the GPUs: computation 4x.
	it, err = w.On(3840, 400*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(it.Compute)-3.6) > 1e-12 {
		t.Errorf("compute at 1/4 GPUs = %v, want 3.6", it.Compute)
	}
}

func TestOnValidation(t *testing.T) {
	w := Baseline()
	if _, err := w.On(0, 400*units.Gbps); err == nil {
		t.Error("zero GPUs should fail")
	}
	if _, err := w.On(100, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestWithFixedRatio(t *testing.T) {
	w := Baseline()
	it, err := w.WithFixedRatio(15360, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(it.CommRatio()-0.10) > 1e-12 {
		t.Errorf("fixed ratio = %v, want 0.10", it.CommRatio())
	}
	// Doubling GPUs halves compute but keeps the ratio.
	it2, err := w.WithFixedRatio(30720, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(it2.CommRatio()-0.10) > 1e-12 {
		t.Errorf("fixed ratio after scaling = %v, want 0.10", it2.CommRatio())
	}
	if math.Abs(float64(it2.Compute)*2-float64(it.Compute)) > 1e-12 {
		t.Errorf("compute should halve: %v vs %v", it2.Compute, it.Compute)
	}
	if _, err := w.WithFixedRatio(0, 0.1); err == nil {
		t.Error("zero GPUs should fail")
	}
	if _, err := w.WithFixedRatio(100, 1.0); err == nil {
		t.Error("ratio 1.0 should fail")
	}
	if _, err := w.WithFixedRatio(100, -0.1); err == nil {
		t.Error("negative ratio should fail")
	}
	// Zero ratio means no communication phase at all.
	it3, err := w.WithFixedRatio(15360, 0)
	if err != nil || it3.Comm != 0 {
		t.Errorf("zero-ratio iteration = %+v, err=%v", it3, err)
	}
}

func TestCommRatioEdge(t *testing.T) {
	if (Iteration{}).CommRatio() != 0 {
		t.Error("zero iteration ratio should be 0")
	}
	if (Workload{}).CommRatio() != 0 {
		t.Error("zero workload ratio should be 0")
	}
}

// Property: total work is conserved — compute time x GPUs and comm time x
// bandwidth are invariant under On.
func TestWorkConservation(t *testing.T) {
	w := Baseline()
	f := func(gRaw, bRaw uint16) bool {
		g := 1 + int(gRaw)%100000
		b := units.Bandwidth(1+int(bRaw)%3200) * units.Gbps
		it, err := w.On(g, b)
		if err != nil {
			return false
		}
		computeWork := float64(it.Compute) * float64(g)
		commWork := float64(it.Comm) * float64(b)
		wantComputeWork := float64(w.ComputeTime) * float64(w.RefGPUs)
		wantCommWork := float64(w.CommTime) * float64(w.RefBandwidth)
		return math.Abs(computeWork-wantComputeWork) < 1e-6*wantComputeWork &&
			math.Abs(commWork-wantCommWork) < 1e-6*wantCommWork
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: iteration time is monotone non-increasing in both GPUs and
// bandwidth.
func TestIterationMonotone(t *testing.T) {
	w := Baseline()
	f := func(g1, g2, b1, b2 uint16) bool {
		ga, gb := 1+int(g1)%100000, 1+int(g2)%100000
		ba := units.Bandwidth(1+int(b1)%3200) * units.Gbps
		bb := units.Bandwidth(1+int(b2)%3200) * units.Gbps
		if ga > gb {
			ga, gb = gb, ga
		}
		if ba > bb {
			ba, bb = bb, ba
		}
		slow, err1 := w.On(ga, ba)
		fast, err2 := w.On(gb, bb)
		if err1 != nil || err2 != nil {
			return false
		}
		return fast.Total() <= slow.Total()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
