package netsim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/power"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

func smallTopo(t *testing.T) *fattree.Topology {
	t.Helper()
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// rateAt returns the trace's rate at time x (0 outside the trace).
func rateAt(tr Trace, x units.Seconds) units.Bandwidth {
	for _, s := range tr {
		if x >= s.Start && x < s.End {
			return s.Rate
		}
	}
	return 0
}

// busyLinks returns, ascending, the links res's traces show carrying
// traffic: for a run of one flow, the links of its path.
func busyLinks(res *Result) []int {
	var ids []int
	for id, tr := range res.LinkTrace {
		if tr.BusyTime() > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// victimLink returns an inter-switch link on the path s routes f on when f
// is its run's first flow: the first flow routes as if it ran alone.
func victimLink(t *testing.T, s *Sim, f traffic.Flow) int {
	t.Helper()
	one := New(s.Top)
	one.Routing, one.ECMPSeed = s.Routing, s.ECMPSeed
	res, err := one.Run([]traffic.Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range busyLinks(res) {
		if s.Top.Links[id].Optical {
			return id
		}
	}
	t.Fatal("flow crosses no inter-switch link")
	return -1
}

func TestRunSingleFlow(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 50 * units.Gbps, Start: 1, End: 3}
	res, err := s.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 3 {
		t.Errorf("horizon = %v, want 3", res.Horizon)
	}
	st := res.Flows[0]
	// Uncontended flow gets its full demand.
	if math.Abs(st.DeliveredBits-float64(fl.Demand)*2) > 1 {
		t.Errorf("delivered = %v, want %v", st.DeliveredBits, float64(fl.Demand)*2)
	}
	for id, tr := range res.LinkTrace {
		if err := tr.Validate(); err != nil {
			t.Fatalf("link %d trace: %v", id, err)
		}
	}
	// Cross-pod path in a 3-tier tree: 6 links, each carrying the flow
	// during [1,3) and nothing before.
	path := busyLinks(res)
	if len(path) != 6 {
		t.Errorf("path length = %d, want 6", len(path))
	}
	for _, lid := range path {
		tr := res.LinkTrace[lid]
		if got := rateAt(tr, 2); math.Abs(float64(got-fl.Demand)) > 1 {
			t.Errorf("link %d rate at t=2: %v, want %v", lid, got, fl.Demand)
		}
		if got := rateAt(tr, 0.5); got != 0 {
			t.Errorf("link %d rate at t=0.5: %v, want 0", lid, got)
		}
	}
}

func TestRunContention(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	// Two hosts under the same edge both send to a third host under that
	// edge: the destination's 100G host link is the bottleneck; each flow
	// gets 50G despite demanding 100G.
	var edgeHosts []int
	e0, _ := top.EdgeOf(hosts[0])
	for _, h := range hosts {
		if e, _ := top.EdgeOf(h); e == e0 {
			edgeHosts = append(edgeHosts, h)
		}
	}
	if len(edgeHosts) < 2 {
		t.Fatal("need 2 hosts under one edge")
	}
	// In a k=4 tree each edge has 2 hosts; use a cross-edge destination
	// shared bottleneck instead: both send to the same destination host.
	dst := hosts[len(hosts)-1]
	flows := []traffic.Flow{
		{Src: edgeHosts[0], Dst: dst, Demand: 100 * units.Gbps, Start: 0, End: 10},
		{Src: edgeHosts[1], Dst: dst, Demand: 100 * units.Gbps, Start: 0, End: 10},
	}
	res, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	total := (res.Flows[0].DeliveredBits + res.Flows[1].DeliveredBits) / 10
	if math.Abs(total-float64(100*units.Gbps)) > 1e-3*float64(units.Gbps) {
		t.Errorf("combined rate = %v Gbps, want 100 (dst link bottleneck)", total/1e9)
	}
	// The destination host link is saturated.
	de, _ := top.EdgeOf(dst)
	l, _ := top.LinkBetween(dst, de)
	if got := rateAt(res.LinkTrace[l.ID], 5); math.Abs(float64(got)-100e9) > 1e6 {
		t.Errorf("dst link rate = %v, want 100G", got)
	}
}

func TestRunFlowSequencing(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	// Two back-to-back flows on the same pair: trace shows both windows.
	flows := []traffic.Flow{
		{Src: hosts[0], Dst: hosts[3], Demand: 10 * units.Gbps, Start: 0, End: 1},
		{Src: hosts[0], Dst: hosts[3], Demand: 20 * units.Gbps, Start: 2, End: 3},
	}
	res, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.LinkTrace[top.LinksOf(hosts[0])[0]]
	if got := rateAt(tr, 0.5); math.Abs(float64(got)-10e9) > 1 {
		t.Errorf("first window rate = %v", got)
	}
	if got := rateAt(tr, 1.5); got != 0 {
		t.Errorf("gap rate = %v, want 0", got)
	}
	if got := rateAt(tr, 2.5); math.Abs(float64(got)-20e9) > 1 {
		t.Errorf("second window rate = %v", got)
	}
	if bt := tr.BusyTime(); math.Abs(float64(bt)-2) > 1e-9 {
		t.Errorf("busy time = %v, want 2", bt)
	}
}

func TestRunSwitchTraces(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 40 * units.Gbps, Start: 0, End: 1}
	res, err := s.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod: 5 switches on the path (edge, agg, core, agg, edge).
	busy := 0
	for _, sw := range top.SwitchIDs() {
		if res.SwitchTrace[sw].BusyTime() > 0 {
			busy++
		}
	}
	if busy != 5 {
		t.Errorf("busy switches = %d, want 5", busy)
	}
}

func TestRunValidation(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	if _, err := s.Run(nil); err == nil {
		t.Error("no flows should fail")
	}
	if _, err := s.Run([]traffic.Flow{{Src: hosts[0], Dst: hosts[1], Demand: 1, Start: 5, End: 5}}); err == nil {
		t.Error("empty window should fail")
	}
	if _, err := s.Run([]traffic.Flow{{Src: hosts[0], Dst: hosts[1], Demand: 0, Start: 0, End: 1}}); err == nil {
		t.Error("zero demand should fail")
	}
	if _, err := s.Run([]traffic.Flow{{Src: hosts[0], Dst: hosts[0], Demand: 1, Start: 0, End: 1}}); err == nil {
		t.Error("self flow should fail")
	}
	bad := New(nil)
	if _, err := bad.Run([]traffic.Flow{{Src: 0, Dst: 1, Demand: 1, Start: 0, End: 1}}); err == nil {
		t.Error("nil topology should fail")
	}
}

// A NaN passes every <= check, so non-finite flow fields are rejected
// explicitly, naming the offending flow.
func TestRunRejectsNonFiniteFlows(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	good := traffic.Flow{Src: hosts[0], Dst: hosts[1], Demand: units.Gbps, Start: 0, End: 1}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		bad  func(*traffic.Flow)
	}{
		{"NaN start", func(f *traffic.Flow) { f.Start = units.Seconds(nan) }},
		{"-Inf start", func(f *traffic.Flow) { f.Start = units.Seconds(-inf) }},
		{"NaN end", func(f *traffic.Flow) { f.End = units.Seconds(nan) }},
		{"+Inf end", func(f *traffic.Flow) { f.End = units.Seconds(inf) }},
		{"NaN demand", func(f *traffic.Flow) { f.Demand = units.Bandwidth(nan) }},
		{"+Inf demand", func(f *traffic.Flow) { f.Demand = units.Bandwidth(inf) }},
	} {
		bad := good
		tc.bad(&bad)
		_, err := s.Run([]traffic.Flow{good, good, bad})
		if err == nil || !strings.Contains(err.Error(), "flow 2 non-finite") {
			t.Errorf("%s: err = %v, want a non-finite error naming flow 2", tc.name, err)
		}
	}
	if _, err := s.Run([]traffic.Flow{good}); err != nil {
		t.Errorf("finite flow after rejected runs: %v", err)
	}
}

func TestECMPDeterminismAndSpread(t *testing.T) {
	top := smallTopo(t)
	s1 := New(top)
	s2 := New(top)
	hosts := top.Hosts()
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 1 * units.Gbps, Start: 0, End: 1}
	r1, err := s1.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(busyLinks(r1), busyLinks(r2)) {
		t.Fatal("same seed produced different paths")
	}
	// Different seeds eventually pick different paths (4 ECMP choices).
	base := busyLinks(r1)
	varied := false
	for seed := uint64(1); seed < 16 && !varied; seed++ {
		s := New(top)
		s.ECMPSeed = seed
		r, err := s.Run([]traffic.Flow{fl})
		if err != nil {
			t.Fatal(err)
		}
		varied = !slices.Equal(busyLinks(r), base)
	}
	if !varied {
		t.Error("ECMP seed never changed the path across 16 seeds")
	}
}

func TestEnergyReportTwoStateVsLinear(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	// Light load for half the horizon.
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 10 * units.Gbps, Start: 0, End: 5}
	end := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 1 * units.Gbps, Start: 9.999, End: 10}
	res, err := s.Run([]traffic.Flow{fl, end})
	if err != nil {
		t.Fatal(err)
	}
	two, err := s.Energy(res, 0.10, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := s.Energy(res, 0.10, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if two.Total() <= 0 || lin.Total() <= 0 {
		t.Fatal("energies must be positive")
	}
	// Linear (rate-adaptive) never burns more than two-state at light load.
	if lin.Total() > two.Total() {
		t.Errorf("linear energy %v exceeds two-state %v", lin.Total(), two.Total())
	}
	if two.Horizon != 10 {
		t.Errorf("horizon = %v, want 10", two.Horizon)
	}
	// Higher proportionality strictly reduces energy (idle power falls).
	better, err := s.Energy(res, 0.90, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if better.Total() >= two.Total() {
		t.Errorf("90%% prop energy %v should be below 10%% prop %v", better.Total(), two.Total())
	}
	if _, err := s.Energy(res, 1.5, TwoState); err == nil {
		t.Error("invalid proportionality should fail")
	}
}

// TestEnergyConservation: total switch energy in a fully idle network equals
// idle power x switches x horizon.
func TestEnergyIdleNetwork(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	// One tiny flow so the run is valid, then measure a proportionality-1
	// network: idle energy must be ~0 outside the flow window.
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[1], Demand: 1 * units.Gbps, Start: 0, End: 1}
	res, err := s.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Energy(res, 1.0, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 2 switches on the same-edge path draw power, for 1 s each.
	m, _ := power.NewModel(750*units.Watt, 1.0)
	_ = m
	wantMax := 2 * 750.0 * 1.0 // at most two switches busy 1s... same-edge path crosses 1 switch
	if float64(rep.SwitchEnergy) > wantMax+1 {
		t.Errorf("switch energy = %v J, want <= %v", float64(rep.SwitchEnergy), wantMax)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := Trace{}
	tr = tr.append(0, 1, 10)
	tr = tr.append(1, 2, 10) // merges
	tr = tr.append(2, 3, 20)
	tr = tr.append(3, 3, 99) // empty span ignored
	if len(tr) != 2 {
		t.Fatalf("segments = %d, want 2 (merged)", len(tr))
	}
	want := Trace{{Start: 0, End: 2, Rate: 10}, {Start: 2, End: 3, Rate: 20}}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, tr[i], want[i])
		}
	}
	bad := Trace{{Start: 0, End: 1, Rate: 1}, {Start: 2, End: 3, Rate: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("gapped trace should fail validation")
	}
	rev := Trace{{Start: 1, End: 0, Rate: 1}}
	if err := rev.Validate(); err == nil {
		t.Error("reversed segment should fail validation")
	}
	neg := Trace{{Start: 0, End: 1, Rate: -1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative rate should fail validation")
	}
}

func TestTraceEnergyLaws(t *testing.T) {
	m, _ := power.NewModel(100*units.Watt, 0.5) // idle 50
	tr := Trace{{Start: 0, End: 1, Rate: 0}, {Start: 1, End: 2, Rate: 50}}
	e, err := tr.Energy(m, 100, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-150) > 1e-9 { // 50 idle + 100 busy
		t.Errorf("two-state energy = %v, want 150", float64(e))
	}
	e, err = tr.Energy(m, 100, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-125) > 1e-9 { // 50 + (50+0.5*50)
		t.Errorf("linear energy = %v, want 125", float64(e))
	}
	if _, err := tr.Energy(m, 0, Linear); err == nil {
		t.Error("linear law without capacity should fail")
	}
	if _, err := tr.Energy(m, 100, PowerLaw(9)); err == nil {
		t.Error("unknown law should fail")
	}
	bad := Trace{{Start: 1, End: 0, Rate: 1}}
	if _, err := bad.Energy(m, 100, TwoState); err == nil {
		t.Error("invalid trace should fail energy")
	}
}
