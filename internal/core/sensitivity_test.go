package core

import (
	"math"
	"testing"
)

// TestSensitivityBaselineRecovered: perturbing each assumption to its
// paper value reproduces the headline metrics exactly.
func TestSensitivityBaselineRecovered(t *testing.T) {
	cases := []struct {
		a Assumption
		v float64
	}{
		{AssumeCommRatio, 0.10},
		{AssumeServerOverhead, 100},
		{AssumeSwitchPower, 750},
		{AssumeComputeProportionality, 0.85},
		{AssumeNetworkProportionality, 0.10},
	}
	for _, tc := range cases {
		pts, err := Sensitivity(tc.a, []float64{tc.v})
		if err != nil {
			t.Fatalf("%v: %v", tc.a, err)
		}
		pt := pts[0]
		if math.Abs(pt.NetworkShare-0.1204) > 0.001 {
			t.Errorf("%v at baseline: share = %v, want ~0.120", tc.a, pt.NetworkShare)
		}
		if math.Abs(pt.NetworkEfficiency-0.1099) > 0.001 {
			t.Errorf("%v at baseline: efficiency = %v, want ~0.110", tc.a, pt.NetworkEfficiency)
		}
		if math.Abs(pt.SavingsAt50-0.0476) > 0.001 {
			t.Errorf("%v at baseline: savings@50 = %v, want ~0.048", tc.a, pt.SavingsAt50)
		}
	}
}

// TestSensitivityCommRatio: a larger communication ratio makes the network
// busier, raising its efficiency and (the network being a bigger deal) its
// average share.
func TestSensitivityCommRatio(t *testing.T) {
	pts, err := Sensitivity(AssumeCommRatio, []float64{0.05, 0.10, 0.20, 0.40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].NetworkEfficiency <= pts[i-1].NetworkEfficiency {
			t.Errorf("efficiency not increasing with comm ratio at %v", pts[i].Value)
		}
	}
	// Savings@50 falls with comm ratio: a busier network has less idle
	// power to reclaim.
	if pts[3].SavingsAt50 >= pts[0].SavingsAt50 {
		t.Errorf("savings@50 should fall with comm ratio: %v vs %v",
			pts[3].SavingsAt50, pts[0].SavingsAt50)
	}
}

// TestSensitivityServerOverhead: heavier servers dilute the network share.
func TestSensitivityServerOverhead(t *testing.T) {
	pts, err := Sensitivity(AssumeServerOverhead, []float64{0, 100, 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].NetworkShare >= pts[i-1].NetworkShare {
			t.Errorf("share not decreasing with server overhead at %v", pts[i].Value)
		}
	}
}

// TestSensitivitySwitchPower: hungrier switches raise the network share
// and the savings potential, with efficiency unchanged (it is a ratio of
// the network's own busy/total energy).
func TestSensitivitySwitchPower(t *testing.T) {
	pts, err := Sensitivity(AssumeSwitchPower, []float64{375, 750, 1500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].NetworkShare <= pts[i-1].NetworkShare {
			t.Errorf("share not increasing with switch power at %v", pts[i].Value)
		}
		if pts[i].SavingsAt50 <= pts[i-1].SavingsAt50 {
			t.Errorf("savings not increasing with switch power at %v", pts[i].Value)
		}
		if math.Abs(pts[i].NetworkEfficiency-pts[0].NetworkEfficiency) > 1e-9 {
			t.Errorf("efficiency should not depend on switch power scale")
		}
	}
}

// TestSensitivityNetworkProportionality: the literature range 5–20% barely
// moves the headline share (the paper's conclusion is robust to it), while
// the savings@50 shrink as today's network gets better.
func TestSensitivityNetworkProportionality(t *testing.T) {
	pts, err := Sensitivity(AssumeNetworkProportionality, []float64{0.05, 0.10, 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].NetworkShare-pts[2].NetworkShare) > 0.02 {
		t.Errorf("share swings too much across the literature range: %v vs %v",
			pts[0].NetworkShare, pts[2].NetworkShare)
	}
	if !(pts[0].SavingsAt50 > pts[1].SavingsAt50 && pts[1].SavingsAt50 > pts[2].SavingsAt50) {
		t.Errorf("savings@50 should shrink as baseline proportionality improves: %v",
			[]float64{pts[0].SavingsAt50, pts[1].SavingsAt50, pts[2].SavingsAt50})
	}
}

// TestSensitivityComputeProportionality: worse servers (lower
// proportionality) draw more on average, diluting the network share.
func TestSensitivityComputeProportionality(t *testing.T) {
	pts, err := Sensitivity(AssumeComputeProportionality, []float64{0.5, 0.85, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].NetworkShare <= pts[i-1].NetworkShare {
			t.Errorf("share should rise as compute gets more proportional at %v", pts[i].Value)
		}
	}
}

func TestSensitivityValidation(t *testing.T) {
	if _, err := Sensitivity(AssumeCommRatio, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := Sensitivity(AssumeCommRatio, []float64{0}); err == nil {
		t.Error("zero comm ratio accepted")
	}
	if _, err := Sensitivity(AssumeServerOverhead, []float64{-1}); err == nil {
		t.Error("negative overhead accepted")
	}
	if _, err := Sensitivity(AssumeSwitchPower, []float64{0}); err == nil {
		t.Error("zero switch power accepted")
	}
	if _, err := Sensitivity(AssumeComputeProportionality, []float64{2}); err == nil {
		t.Error("excess proportionality accepted")
	}
	if _, err := Sensitivity(AssumeNetworkProportionality, []float64{-0.1}); err == nil {
		t.Error("negative proportionality accepted")
	}
	if _, err := Sensitivity(Assumption(99), []float64{1}); err == nil {
		t.Error("unknown assumption accepted")
	}
}

func TestAssumptionStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range []Assumption{
		AssumeCommRatio, AssumeServerOverhead, AssumeSwitchPower,
		AssumeComputeProportionality, AssumeNetworkProportionality,
	} {
		name := a.String()
		if name == "" || seen[name] {
			t.Errorf("assumption %d unnamed or duplicated (%q)", int(a), name)
		}
		seen[name] = true
	}
	if Assumption(99).String() != "Assumption(99)" {
		t.Error("unknown assumption formatting broken")
	}
}
