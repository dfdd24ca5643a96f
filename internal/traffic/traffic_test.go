package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

func testJob(pattern Pattern, hosts int) Job {
	ids := make([]int, hosts)
	for i := range ids {
		ids[i] = 100 + i
	}
	return Job{
		ID:        1,
		Hosts:     ids,
		Period:    10,
		CommRatio: 0.2,
		Rate:      100 * units.Gbps,
		Pattern:   pattern,
	}
}

func TestJobValidate(t *testing.T) {
	good := testJob(Ring, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []func(*Job){
		func(j *Job) { j.Hosts = j.Hosts[:1] },
		func(j *Job) { j.Period = 0 },
		func(j *Job) { j.CommRatio = 0 },
		func(j *Job) { j.CommRatio = 1 },
		func(j *Job) { j.Rate = 0 },
		func(j *Job) { j.Offset = -1 },
		func(j *Job) { j.Pattern = Pattern(42) },
	}
	for i, mutate := range cases {
		j := testJob(Ring, 4)
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

func TestRingFlows(t *testing.T) {
	j := testJob(Ring, 4)
	flows, err := j.Flows(2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 hosts -> 4 ring flows per iteration, 2 iterations.
	if len(flows) != 8 {
		t.Fatalf("flows = %d, want 8", len(flows))
	}
	// Communication window is the last 20% of each period: [8,10) and [18,20).
	for i, f := range flows {
		wantStart := units.Seconds(8)
		if i >= 4 {
			wantStart = 18
		}
		if f.Start != wantStart || f.End != wantStart+2 {
			t.Errorf("flow %d window [%v,%v], want [%v,%v]", i, f.Start, f.End, wantStart, wantStart+2)
		}
		if f.Duration() != 2 {
			t.Errorf("flow %d duration %v, want 2", i, f.Duration())
		}
	}
	// Ring structure: each host appears exactly once as src and once as dst
	// per iteration.
	srcCount := map[int]int{}
	dstCount := map[int]int{}
	for _, f := range flows[:4] {
		srcCount[f.Src]++
		dstCount[f.Dst]++
	}
	for _, h := range j.Hosts {
		if srcCount[h] != 1 || dstCount[h] != 1 {
			t.Errorf("host %d src=%d dst=%d, want 1/1", h, srcCount[h], dstCount[h])
		}
	}
}

func TestAllToAllFlows(t *testing.T) {
	j := testJob(AllToAll, 3)
	flows, err := j.Flows(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 6 { // 3*2 ordered pairs
		t.Fatalf("flows = %d, want 6", len(flows))
	}
	seen := map[[2]int]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Error("self flow generated")
		}
		seen[[2]int{f.Src, f.Dst}] = true
	}
	if len(seen) != 6 {
		t.Errorf("distinct pairs = %d, want 6", len(seen))
	}
}

func TestNeighborFlows(t *testing.T) {
	j := testJob(Neighbor, 4)
	flows, err := j.Flows(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 4 { // two pairs, bidirectional
		t.Fatalf("flows = %d, want 4", len(flows))
	}
	// Odd host count: the last host is left unpaired.
	j = testJob(Neighbor, 5)
	flows, _ = j.Flows(1)
	if len(flows) != 4 {
		t.Errorf("odd-host neighbor flows = %d, want 4", len(flows))
	}
}

func TestHierarchicalFlows(t *testing.T) {
	j := testJob(Hierarchical, 8)
	j.GroupSize = 4
	flows, err := j.Flows(1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 groups x 4 intra-ring edges + 2 leader edges = 10 flows.
	if len(flows) != 10 {
		t.Fatalf("flows = %d, want 10", len(flows))
	}
	// Count cross-group flows: exactly the 2 leader-ring edges.
	cross := 0
	groupOf := func(h int) int { return (h - 100) / 4 }
	for _, f := range flows {
		if groupOf(f.Src) != groupOf(f.Dst) {
			cross++
		}
	}
	if cross != 2 {
		t.Errorf("cross-group flows = %d, want 2 (hierarchical keeps traffic local)", cross)
	}
	// Compare locality against a flat ring over the same hosts: the flat
	// ring crosses groups twice too, but hierarchical adds intra traffic
	// without adding cross traffic as the job grows.
	big := testJob(Hierarchical, 16)
	big.GroupSize = 4
	bigFlows, err := big.Flows(1)
	if err != nil {
		t.Fatal(err)
	}
	bigCross := 0
	bigGroup := func(h int) int { return (h - 100) / 4 }
	for _, f := range bigFlows {
		if bigGroup(f.Src) != bigGroup(f.Dst) {
			bigCross++
		}
	}
	if bigCross != 4 { // leader ring over 4 groups
		t.Errorf("16-host cross-group flows = %d, want 4", bigCross)
	}
}

func TestHierarchicalValidation(t *testing.T) {
	j := testJob(Hierarchical, 8)
	j.GroupSize = 0
	if err := j.Validate(); err == nil {
		t.Error("zero group size accepted")
	}
	j.GroupSize = 8
	if err := j.Validate(); err == nil {
		t.Error("group size == hosts accepted")
	}
	j.GroupSize = 3
	if err := j.Validate(); err == nil {
		t.Error("non-divisible group size accepted")
	}
	j.GroupSize = 4
	if err := j.Validate(); err != nil {
		t.Errorf("valid hierarchical job rejected: %v", err)
	}
	if Hierarchical.String() != "hierarchical" {
		t.Error("pattern name broken")
	}
}

func TestFlowsWithOffset(t *testing.T) {
	j := testJob(Ring, 2)
	j.Offset = 3
	flows, err := j.Flows(1)
	if err != nil {
		t.Fatal(err)
	}
	if flows[0].Start != 11 { // 3 + (10-2)
		t.Errorf("offset flow start = %v, want 11", flows[0].Start)
	}
}

func TestFlowsErrors(t *testing.T) {
	j := testJob(Ring, 4)
	if _, err := j.Flows(0); err == nil {
		t.Error("zero iterations should fail")
	}
	j.Rate = 0
	if _, err := j.Flows(1); err == nil {
		t.Error("invalid job should fail Flows")
	}
}

func TestJobMatrix(t *testing.T) {
	j := testJob(Ring, 4)
	m, err := j.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 4 {
		t.Errorf("matrix entries = %d, want 4", m.Len())
	}
	// Average rate = rate x comm ratio = 20 Gbps per ring edge.
	want := 20 * units.Gbps
	if got := m.Demand(100, 101); math.Abs(float64(got-want)) > 1 {
		t.Errorf("demand(100,101) = %v, want %v", got, want)
	}
	var total units.Bandwidth
	m.Pairs(func(_, _ int, d units.Bandwidth) { total += d })
	if got := total; math.Abs(float64(got-4*want)) > 1 {
		t.Errorf("total = %v, want %v", got, 4*want)
	}
	bad := j
	bad.Period = 0
	if _, err := bad.Matrix(); err == nil {
		t.Error("invalid job should fail Matrix")
	}
}

func TestMatrixOps(t *testing.T) {
	m := NewMatrix()
	m.Add(1, 2, 10*units.Gbps)
	m.Add(1, 2, 5*units.Gbps)
	m.Add(1, 1, 99*units.Gbps) // self-demand ignored
	m.Add(2, 3, 0)             // zero ignored
	if m.Len() != 1 {
		t.Errorf("entries = %d, want 1", m.Len())
	}
	if m.Demand(1, 2) != 15*units.Gbps {
		t.Errorf("demand = %v, want 15 Gbps", m.Demand(1, 2))
	}
	m.Add(3, 4, 2*units.Gbps)
	var visited int
	m.Pairs(func(s, d int, v units.Bandwidth) { visited++ })
	if visited != 2 {
		t.Errorf("Pairs visited %d, want 2", visited)
	}
}

func TestDiurnal(t *testing.T) {
	p, err := Diurnal(0.1, 0.9, 86400)
	if err != nil {
		t.Fatal(err)
	}
	if got := p(0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("trough = %v, want 0.1", got)
	}
	if got := p(43200); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("peak = %v, want 0.9", got)
	}
	if got := p(86400); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("full period = %v, want 0.1", got)
	}
	for _, bad := range []struct{ lo, hi float64 }{{-0.1, 0.5}, {0.2, 1.1}, {0.9, 0.1}} {
		if _, err := Diurnal(bad.lo, bad.hi, 86400); err == nil {
			t.Errorf("Diurnal(%v,%v) should fail", bad.lo, bad.hi)
		}
	}
	if _, err := Diurnal(0.1, 0.9, 0); err == nil {
		t.Error("zero period should fail")
	}
}

func TestMLPeriodic(t *testing.T) {
	p, err := MLPeriodic(0.2, 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Zero during computation [0,8), full during communication [8,10).
	for _, tt := range []struct {
		t    units.Seconds
		want float64
	}{
		{0, 0}, {4, 0}, {7.99, 0}, {8, 1}, {9.5, 1}, {10, 0}, {18, 1},
	} {
		if got := p(tt.t); got != tt.want {
			t.Errorf("MLPeriodic(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if _, err := MLPeriodic(0, 10, 1); err == nil {
		t.Error("zero ratio should fail")
	}
	if _, err := MLPeriodic(0.2, 0, 1); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := MLPeriodic(0.2, 10, 2); err == nil {
		t.Error("level > 1 should fail")
	}
}

func TestConstantAndSample(t *testing.T) {
	p := Profile(func(units.Seconds) float64 { return 0.5 })
	ts, vs, err := Sample(p, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 || len(vs) != 5 {
		t.Fatalf("samples = %d/%d, want 5/5", len(ts), len(vs))
	}
	for i, v := range vs {
		if v != 0.5 {
			t.Errorf("sample %d = %v, want 0.5", i, v)
		}
	}
	if ts[4] != 8 {
		t.Errorf("last sample time = %v, want 8", ts[4])
	}
	if _, _, err := Sample(p, 0, 1); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, _, err := Sample(p, 10, 0); err == nil {
		t.Error("zero step should fail")
	}
}

func TestPatternString(t *testing.T) {
	if Ring.String() != "ring" || AllToAll.String() != "alltoall" || Neighbor.String() != "neighbor" {
		t.Error("pattern names broken")
	}
	if Pattern(9).String() != "Pattern(9)" {
		t.Error("unknown pattern formatting broken")
	}
}

// Property: diurnal profiles stay within their configured bounds.
func TestDiurnalBounded(t *testing.T) {
	p, err := Diurnal(0.2, 0.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		tt := units.Seconds(math.Abs(math.Mod(raw, 1e6)))
		v := p(tt)
		return v >= 0.2-1e-9 && v <= 0.8+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a job's flows all lie within [offset, offset + iterations x
// period] and total flow-seconds match iterations x pairs x window.
func TestFlowsWindowInvariant(t *testing.T) {
	f := func(hRaw, itRaw uint8) bool {
		hosts := 2 + int(hRaw)%6
		iters := 1 + int(itRaw)%5
		j := testJob(Ring, hosts)
		flows, err := j.Flows(iters)
		if err != nil {
			return false
		}
		horizon := j.Offset + units.Seconds(iters)*j.Period
		var totalDur float64
		for _, fl := range flows {
			if fl.Start < j.Offset || fl.End > horizon+1e-9 {
				return false
			}
			totalDur += float64(fl.Duration())
		}
		want := float64(iters*hosts) * float64(j.Period) * j.CommRatio
		return math.Abs(totalDur-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
