package core

import (
	"math"
	"reflect"
	"testing"

	"netpowerprop/internal/units"
)

func figBandwidths() []units.Bandwidth { return Table3Bandwidths() }

func fig3At(t *testing.T, props []float64, kind BudgetKind) map[float64]map[float64]float64 {
	t.Helper()
	curves, err := Fig3(Baseline(), figBandwidths(), props, kind)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[float64]map[float64]float64)
	for _, c := range curves {
		row := make(map[float64]float64)
		for _, p := range c.Points {
			row[p.Proportionality] = p.Speedup
		}
		out[float64(c.Bandwidth/units.Gbps)] = row
	}
	return out
}

// TestFig3BaselineAnchor: the baseline point (400 G, 10% proportionality)
// has zero speedup by construction.
func TestFig3BaselineAnchor(t *testing.T) {
	m := fig3At(t, []float64{0.10}, AvgBudget)
	if s := m[400][0.10]; math.Abs(s) > 1e-6 {
		t.Errorf("baseline anchor speedup = %v, want 0", s)
	}
}

// TestFig3LowerBandwidthWinsAtPoorProportionality asserts the paper's
// headline Fig. 3 finding: with poor proportionality, lower network
// bandwidth is faster overall — at 10% proportionality the 100 G and 200 G
// clusters beat 400 G, which beats 800 G, which beats 1600 G.
func TestFig3LowerBandwidthWinsAtPoorProportionality(t *testing.T) {
	m := fig3At(t, []float64{0.10}, AvgBudget)
	p := 0.10
	if !(m[200][p] > m[400][p] && m[100][p] > m[400][p]) {
		t.Errorf("at 10%% prop, 100G (%v) and 200G (%v) should beat 400G (%v)",
			m[100][p], m[200][p], m[400][p])
	}
	if !(m[400][p] > m[800][p] && m[800][p] > m[1600][p]) {
		t.Errorf("at 10%% prop, higher bandwidths should be slower: 400=%v 800=%v 1600=%v",
			m[400][p], m[800][p], m[1600][p])
	}
}

// TestFig3TwoHundredStillBeatsFourHundredAtFifty asserts: "even at 50%
// proportionality, a 200 Gbps network is still faster than a 400 Gbps one."
func TestFig3TwoHundredStillBeatsFourHundredAtFifty(t *testing.T) {
	m := fig3At(t, []float64{0.50}, AvgBudget)
	if m[200][0.50] <= m[400][0.50] {
		t.Errorf("at 50%% prop, 200G (%v) should still beat 400G (%v)",
			m[200][0.50], m[400][0.50])
	}
}

// TestFig3HighBandwidthNeedsVeryHighProportionality asserts: "800 and 1600
// Gbps speeds become the best alternatives only at very high
// proportionality values (> 90%)": at 90% they do not yet win; at 100%
// 1600 G is the best.
func TestFig3HighBandwidthNeedsVeryHighProportionality(t *testing.T) {
	m := fig3At(t, []float64{0.90, 1.00}, AvgBudget)
	best90 := bestBandwidth(m, 0.90)
	if best90 == 800 || best90 == 1600 {
		t.Errorf("at 90%% prop, best bandwidth = %vG; paper says 800/1600 win only above 90%%", best90)
	}
	best100 := bestBandwidth(m, 1.00)
	if best100 != 1600 {
		t.Errorf("at 100%% prop, best bandwidth = %vG, want 1600", best100)
	}
}

func bestBandwidth(m map[float64]map[float64]float64, p float64) float64 {
	best, bestV := 0.0, math.Inf(-1)
	for bw, row := range m {
		if row[p] > bestV {
			best, bestV = bw, row[p]
		}
	}
	return best
}

// TestFig3SixteenHundredWorstAtZero: the 1600 G curve starts deepest
// (paper: about −30% at the left edge).
func TestFig3SixteenHundredWorstAtZero(t *testing.T) {
	m := fig3At(t, []float64{0}, AvgBudget)
	if s := m[1600][0]; s > -0.20 || s < -0.40 {
		t.Errorf("1600G speedup at 0%% prop = %v, paper shows about -0.30", s)
	}
	for _, bw := range []float64{100, 200, 400, 800} {
		if m[bw][0] < m[1600][0] {
			t.Errorf("%vG (%v) should not be below 1600G (%v) at 0%% prop", bw, m[bw][0], m[1600][0])
		}
	}
}

// TestFig3MonotoneInProportionality: better proportionality never slows any
// bandwidth down ("better power proportionality improves the iteration time
// for all bandwidth speeds").
func TestFig3MonotoneInProportionality(t *testing.T) {
	props := []float64{0, 0.25, 0.5, 0.75, 1}
	curves, err := Fig3(Baseline(), figBandwidths(), props, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Speedup < c.Points[i-1].Speedup-1e-9 {
				t.Errorf("%v: speedup not monotone at prop %v", c.Bandwidth, c.Points[i].Proportionality)
			}
		}
	}
}

// TestFig3GPUCountsGrow: freeing network power budget adds GPUs — the
// optimized GPU count rises with proportionality for every bandwidth.
func TestFig3GPUCountsGrow(t *testing.T) {
	curves, err := Fig3(Baseline(), figBandwidths(), []float64{0, 0.5, 1}, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].GPUs <= c.Points[i-1].GPUs {
				t.Errorf("%v: GPU count not growing with proportionality", c.Bandwidth)
			}
		}
	}
}

// TestFig4ZeroAtReference: every Fig. 4 curve is zero at 0% proportionality
// by construction (speedups are relative to the same-bandwidth
// zero-proportionality network).
func TestFig4ZeroAtReference(t *testing.T) {
	curves, err := Fig4(Baseline(), figBandwidths(), []float64{0, 0.5}, 0.10, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		if s := c.Points[0].Speedup; math.Abs(s) > 1e-9 {
			t.Errorf("%v: speedup at 0%% prop = %v, want 0", c.Bandwidth, s)
		}
	}
}

// TestFig4HigherBandwidthGainsMore asserts the paper's Fig. 4 finding: "the
// higher the bandwidth, the bigger the performance gain."
func TestFig4HigherBandwidthGainsMore(t *testing.T) {
	curves, err := Fig4(Baseline(), figBandwidths(), []float64{0.5, 1}, 0.10, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 2; col++ {
		for i := 1; i < len(curves); i++ {
			if curves[i].Points[col].Speedup <= curves[i-1].Points[col].Speedup {
				t.Errorf("at prop %v, %v gain (%v) should exceed %v gain (%v)",
					curves[i].Points[col].Proportionality,
					curves[i].Bandwidth, curves[i].Points[col].Speedup,
					curves[i-1].Bandwidth, curves[i-1].Points[col].Speedup)
			}
		}
	}
}

// TestFig4EightHundredAtFifty asserts the worked number: "a network power
// proportionality of 50% on a 800 Gbps network would enable a 10% speedup."
func TestFig4EightHundredAtFifty(t *testing.T) {
	curves, err := Fig4(Baseline(), []units.Bandwidth{800 * units.Gbps}, []float64{0.50}, 0.10, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	s := curves[0].Points[0].Speedup
	if math.Abs(s-0.10) > 0.025 {
		t.Errorf("800G at 50%% prop speedup = %.3f, paper reports ~0.10", s)
	}
}

// TestFig4FixedRatioHolds: every optimized cluster in Fig. 4 keeps the
// pinned 10% communication ratio.
func TestFig4FixedRatioHolds(t *testing.T) {
	curves, err := Fig4(Baseline(), figBandwidths(), []float64{0, 1}, 0.10, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	base := Baseline()
	for _, c := range curves {
		for _, p := range c.Points {
			cfg := base
			cfg.Bandwidth = c.Bandwidth
			cfg.NetworkProportionality = p.Proportionality
			cfg.FixedCommRatio = 0.10
			cfg.GPUs = p.GPUs
			cl := mustCluster(t, cfg)
			if got := cl.Iteration().CommRatio(); math.Abs(got-0.10) > 1e-9 {
				t.Errorf("%v prop %v: comm ratio = %v, want 0.10", c.Bandwidth, p.Proportionality, got)
			}
		}
	}
}

func TestOptimizeGPUs(t *testing.T) {
	base := Baseline()
	baseCl := mustCluster(t, base)
	budget := baseCl.AveragePower()
	// Optimizing the baseline config against its own average power recovers
	// (at least) the baseline GPU count.
	opt, err := OptimizeGPUs(base, budget, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.Config().GPUs; got < base.GPUs || got > base.GPUs+1 {
		t.Errorf("optimized GPUs = %d, want %d (+1 rounding at most)", got, base.GPUs)
	}
	// The result saturates the budget: one more GPU would exceed it.
	over := base
	over.GPUs = opt.Config().GPUs + 1
	overCl := mustCluster(t, over)
	if overCl.AveragePower() <= budget {
		t.Error("OptimizeGPUs left budget on the table")
	}
	// Errors.
	if _, err := OptimizeGPUs(base, 0, AvgBudget); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := OptimizeGPUs(base, 100*units.Watt, AvgBudget); err == nil {
		t.Error("budget below one GPU should fail")
	}
	bad := base
	bad.Bandwidth = 0
	if _, err := OptimizeGPUs(bad, budget, AvgBudget); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestOptimizeGPUsPeakVsAvg(t *testing.T) {
	base := Baseline()
	baseCl := mustCluster(t, base)
	// With the same numeric budget, a peak constraint is tighter than an
	// average constraint, so it affords fewer GPUs.
	budget := baseCl.PeakPower()
	peakOpt, err := OptimizeGPUs(base, budget, PeakBudget)
	if err != nil {
		t.Fatal(err)
	}
	avgOpt, err := OptimizeGPUs(base, budget, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	if peakOpt.Config().GPUs > avgOpt.Config().GPUs {
		t.Errorf("peak-constrained GPUs (%d) should not exceed avg-constrained (%d)",
			peakOpt.Config().GPUs, avgOpt.Config().GPUs)
	}
}

func TestBudgetKindParse(t *testing.T) {
	for _, s := range []string{"avg", "average", ""} {
		k, err := ParseBudgetKind(s)
		if err != nil || k != AvgBudget {
			t.Errorf("ParseBudgetKind(%q) = %v, %v", s, k, err)
		}
	}
	k, err := ParseBudgetKind("peak")
	if err != nil || k != PeakBudget {
		t.Errorf("ParseBudgetKind(peak) = %v, %v", k, err)
	}
	if _, err := ParseBudgetKind("bogus"); err == nil {
		t.Error("bogus kind should fail")
	}
	if AvgBudget.String() != "avg" || PeakBudget.String() != "peak" {
		t.Error("BudgetKind.String broken")
	}
	if BudgetKind(9).String() != "BudgetKind(9)" {
		t.Error("unknown kind formatting broken")
	}
}

// TestBestBandwidthCrossovers pins the paper's crossover narrative with
// the full 5%-step sweep: 100/200 G win at poor proportionality, 400 G in
// the middle band, and 800/1600 G only above 90%.
func TestBestBandwidthCrossovers(t *testing.T) {
	curves, err := Fig3(Baseline(), figBandwidths(), FigProportionalities(), AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := BestBandwidth(curves)
	if err != nil {
		t.Fatal(err)
	}
	if len(cross) != 21 {
		t.Fatalf("crossover rows = %d", len(cross))
	}
	for _, c := range cross {
		gb := float64(c.Best / units.Gbps)
		switch {
		case c.Proportionality <= 0.30:
			if gb > 200 {
				t.Errorf("at %.0f%% prop best = %vG; low proportionality should favor low bandwidth",
					c.Proportionality*100, gb)
			}
		case c.Proportionality >= 0.96:
			if gb < 800 {
				t.Errorf("at %.0f%% prop best = %vG; near-perfect proportionality should favor high bandwidth",
					c.Proportionality*100, gb)
			}
		}
		// The winner is never slower than the baseline scenario.
		if c.Speedup < 0 {
			t.Errorf("best speedup at %.0f%% prop is negative: %v", c.Proportionality*100, c.Speedup)
		}
	}
	// 800/1600 must NOT win anywhere at or below 90%.
	for _, c := range cross {
		if c.Proportionality <= 0.90+1e-9 && float64(c.Best/units.Gbps) >= 800 {
			t.Errorf("%vG wins already at %.0f%% proportionality; paper says only above 90%%",
				float64(c.Best/units.Gbps), c.Proportionality*100)
		}
	}
}

func TestBestBandwidthErrors(t *testing.T) {
	if _, err := BestBandwidth(nil); err == nil {
		t.Error("empty curves accepted")
	}
	ragged := []SpeedupCurve{
		{Bandwidth: 100, Points: []SpeedupPoint{{}, {}}},
		{Bandwidth: 200, Points: []SpeedupPoint{{}}},
	}
	if _, err := BestBandwidth(ragged); err == nil {
		t.Error("ragged curves accepted")
	}
}

func TestFigProportionalities(t *testing.T) {
	props := FigProportionalities()
	if len(props) != 21 || props[0] != 0 {
		t.Fatalf("FigProportionalities = %v", props)
	}
	if math.Abs(props[20]-1.0) > 1e-9 {
		t.Errorf("last proportionality = %v, want 1.0", props[20])
	}
	for i := 1; i < len(props); i++ {
		if props[i] <= props[i-1] {
			t.Error("proportionality sweep not ascending")
		}
	}
}

func TestFigErrors(t *testing.T) {
	bad := Baseline()
	bad.GPUs = 0
	if _, err := Fig3(bad, figBandwidths(), []float64{0.5}, AvgBudget); err == nil {
		t.Error("invalid base should fail Fig3")
	}
	if _, err := Fig4(bad, figBandwidths(), []float64{0.5}, 0.10, AvgBudget); err == nil {
		t.Error("invalid base should fail Fig4")
	}
	if _, err := Fig4(Baseline(), figBandwidths(), []float64{0.5}, 1.5, AvgBudget); err == nil {
		t.Error("invalid ratio should fail Fig4")
	}
}

// TestParallelErrors: each per-bandwidth row the engine runs in parallel
// rejects the same invalid inputs as the whole figure, so a failure
// surfaces from whichever row carries it.
func TestParallelErrors(t *testing.T) {
	bad := Baseline()
	bad.GPUs = 0
	for _, bw := range figBandwidths() {
		row := []units.Bandwidth{bw}
		if _, err := Fig3(bad, row, []float64{0.5}, AvgBudget); err == nil {
			t.Errorf("%v: invalid base accepted by a Fig3 row", bw)
		}
		if _, err := Fig4(bad, row, []float64{0.5}, 0.10, AvgBudget); err == nil {
			t.Errorf("%v: invalid base accepted by a Fig4 row", bw)
		}
		// A cell-level failure propagates: proportionality outside [0,1].
		if _, err := Fig3(Baseline(), row, []float64{2}, AvgBudget); err == nil {
			t.Errorf("%v: invalid proportionality accepted by a Fig3 row", bw)
		}
		if _, err := Fig4(Baseline(), row, []float64{0.5}, 1.5, AvgBudget); err == nil {
			t.Errorf("%v: invalid ratio accepted by a Fig4 row", bw)
		}
	}
}

// perBandwidth evaluates a figure one bandwidth at a time, as the engine
// does when it runs each curve as an independent row.
func perBandwidth(t *testing.T, fig func(bws []units.Bandwidth) ([]SpeedupCurve, error)) []SpeedupCurve {
	t.Helper()
	var out []SpeedupCurve
	for _, bw := range figBandwidths() {
		curves, err := fig([]units.Bandwidth{bw})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, curves...)
	}
	return out
}

// TestFig3RowsMatchWhole: every Fig. 3 curve depends only on its own
// bandwidth, so computing the curves one bandwidth at a time reproduces
// the whole figure exactly — the property that lets the engine run each
// curve as an independent row.
func TestFig3RowsMatchWhole(t *testing.T) {
	props := []float64{0, 0.5, 1}
	whole, err := Fig3(Baseline(), figBandwidths(), props, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	rows := perBandwidth(t, func(bws []units.Bandwidth) ([]SpeedupCurve, error) {
		return Fig3(Baseline(), bws, props, AvgBudget)
	})
	if !reflect.DeepEqual(whole, rows) {
		t.Errorf("per-bandwidth Fig3 differs from the whole figure:\nrows:  %+v\nwhole: %+v", rows, whole)
	}
}

// TestFig4RowsMatchWhole: same for the fixed-ratio scenario, whose
// reference is per bandwidth.
func TestFig4RowsMatchWhole(t *testing.T) {
	props := []float64{0, 0.5, 1}
	whole, err := Fig4(Baseline(), figBandwidths(), props, 0.10, AvgBudget)
	if err != nil {
		t.Fatal(err)
	}
	rows := perBandwidth(t, func(bws []units.Bandwidth) ([]SpeedupCurve, error) {
		return Fig4(Baseline(), bws, props, 0.10, AvgBudget)
	})
	if !reflect.DeepEqual(whole, rows) {
		t.Errorf("per-bandwidth Fig4 differs from the whole figure:\nrows:  %+v\nwhole: %+v", rows, whole)
	}
}
