package netsim

import (
	"fmt"
	"math"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// append adds a span, merging with the previous segment when the rate is
// unchanged. It is the per-interval accumulation the simulator used before
// change-only emission, kept as the oracle referenceTraces builds on.
func (t Trace) append(start, end units.Seconds, rate units.Bandwidth) Trace {
	if end <= start {
		return t
	}
	if n := len(t); n > 0 && t[n-1].End == start && t[n-1].Rate == rate {
		t[n-1].End = end
		return t
	}
	return append(t, Segment{Start: start, End: end, Rate: rate})
}

// referenceTraces recomputes a finished run's traces the way the simulator
// did before change-only emission and solve reuse: every interval
// [times[ti], times[ti+1]) gathers its active flows by scanning every flow,
// solves its fairness problem from scratch on capacities with the epoch's
// dead links zeroed, and appends one span to every link's and every
// switch's trace. It also checks every flow's delivered bits and downtime
// bit for bit. It reads the run's event times, start order and routes from
// s.scratch, so call it right after the run.
func referenceTraces(t *testing.T, s *Sim, res *Result, flows []traffic.Flow) (links, switches []Trace) {
	t.Helper()
	sc := &s.warm.scratch
	nl := len(s.Top.Links)
	caps := make([]float64, nl)
	for _, l := range s.Top.Links {
		caps[l.ID] = float64(l.Speed)
	}
	tl := cleanTimeline
	if s.Faults != nil && s.Faults.Len() > 0 {
		var err error
		if tl, err = fault.Compile(s.Faults, res.Horizon, nl, s.Top.LinksOf); err != nil {
			t.Fatal(err)
		}
	}
	links = make([]Trace, nl)
	switches = make([]Trace, len(s.Top.Nodes))
	linkRate := make([]float64, nl)
	switchRate := make([]float64, len(s.Top.Nodes))
	delivered := make([]float64, len(flows))
	downtime := make([]units.Seconds, len(flows))
	var solver Solver
	for ti := 0; ti+1 < len(sc.times); ti++ {
		t0, t1 := sc.times[ti], sc.times[ti+1]
		clear(linkRate)
		clear(switchRate)
		epoch := 0
		for epoch+1 < tl.NumEpochs() && tl.Starts[epoch+1] <= t0 {
			epoch++
		}
		ec := append([]float64(nil), caps...)
		for l, d := range tl.Dead[epoch] {
			if d {
				ec[l] = 0
			}
		}
		var demands []float64
		var paths [][]int32
		var active []int
		for _, fi := range sc.byStart {
			f := flows[fi]
			if f.Start > t0 || f.End <= t0 {
				continue
			}
			st := &sc.states[fi]
			rt := st.routes[epoch-st.e0]
			if rt.stalled {
				downtime[fi] += t1 - t0
				continue
			}
			demands = append(demands, float64(f.Demand))
			paths = append(paths, s.warm.paths.path(st.ps, int(rt.path)))
			active = append(active, fi)
		}
		if len(demands) > 0 {
			rates, err := solver.Solve(demands, paths, ec)
			if err != nil {
				t.Fatal(err)
			}
			for r, fi := range active {
				st := &sc.states[fi]
				rt := st.routes[epoch-st.e0]
				rate := rates[r]
				delivered[fi] += rate * float64(t1-t0)
				for _, l := range s.warm.paths.path(st.ps, int(rt.path)) {
					linkRate[l] += rate
				}
				for _, sw := range s.warm.paths.switchesOf(st.ps, int(rt.path)) {
					switchRate[sw] += rate
				}
			}
		}
		for l := range links {
			links[l] = links[l].append(t0, t1, units.Bandwidth(linkRate[l]))
		}
		for _, n := range s.Top.Nodes {
			if n.IsSwitch() {
				switches[n.ID] = switches[n.ID].append(t0, t1, units.Bandwidth(switchRate[n.ID]))
			}
		}
	}
	for i, fs := range res.Flows {
		if math.Float64bits(fs.DeliveredBits) != math.Float64bits(delivered[i]) {
			t.Fatalf("flow %d: run delivered %v bits, fresh solves give %v", i, fs.DeliveredBits, delivered[i])
		}
		if math.Float64bits(float64(fs.Downtime)) != math.Float64bits(float64(downtime[i])) {
			t.Fatalf("flow %d: run downtime %v, fresh sweep gives %v", i, fs.Downtime, downtime[i])
		}
	}
	return links, switches
}

// sameTrace reports whether a and b hold bit-identical segments.
func sameTrace(a, b Trace) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i].Start)) != math.Float64bits(float64(b[i].Start)) ||
			math.Float64bits(float64(a[i].End)) != math.Float64bits(float64(b[i].End)) ||
			math.Float64bits(float64(a[i].Rate)) != math.Float64bits(float64(b[i].Rate)) {
			return false
		}
	}
	return true
}

// checkTraceLayout asserts the Result's trace contract: one trace per link
// and per node, nil exactly for hosts, each valid over [0, Horizon] with
// cap == len, and no trace sharing spare capacity with a neighbour.
func checkTraceLayout(t *testing.T, label string, top *fattree.Topology, res *Result) {
	t.Helper()
	if len(res.LinkTrace) != len(top.Links) || len(res.SwitchTrace) != len(top.Nodes) {
		t.Fatalf("%s: %d link and %d node traces, want %d and %d", label,
			len(res.LinkTrace), len(res.SwitchTrace), len(top.Links), len(top.Nodes))
	}
	all := make([]Trace, 0, len(res.LinkTrace)+len(res.SwitchTrace))
	for id, tr := range res.SwitchTrace {
		if !top.Nodes[id].IsSwitch() {
			if tr != nil {
				t.Fatalf("%s: host %d has a trace", label, id)
			}
			continue
		}
		all = append(all, tr)
	}
	all = append(all, res.LinkTrace...)
	for i, tr := range all {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: trace %d: %v", label, i, err)
		}
		if len(tr) == 0 || tr[0].Start != 0 || tr[len(tr)-1].End != res.Horizon {
			t.Fatalf("%s: trace %d does not cover [0, %v]: %v", label, i, res.Horizon, tr)
		}
		if cap(tr) != len(tr) {
			t.Fatalf("%s: trace %d has cap %d, len %d", label, i, cap(tr), len(tr))
		}
	}
	before := make([]Trace, len(all))
	for i, tr := range all {
		before[i] = append(Trace(nil), tr...)
	}
	for _, tr := range all {
		_ = append(tr, Segment{Start: -1, End: -1, Rate: -1})
	}
	for i, tr := range all {
		if !sameTrace(tr, before[i]) {
			t.Fatalf("%s: appending to a trace changed trace %d", label, i)
		}
	}
}

// emitTopologies returns the differential test's fabrics: k=4 and k=8 fat
// trees and every zoo member at 16 hosts.
func emitTopologies(t *testing.T) map[string]*fattree.Topology {
	t.Helper()
	tops := map[string]*fattree.Topology{}
	for _, k := range []int{4, 8} {
		top, err := fattree.BuildThreeTier(k, 100*units.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		tops[fmt.Sprintf("fattree-k%d", k)] = top
	}
	for _, name := range topo.Names() {
		top, _, err := topo.Build(name, topo.Spec{Hosts: 16, LinkSpeed: 100 * units.Gbps})
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		tops[name] = top
	}
	return tops
}

// Change-only emission into one arena must reproduce the per-interval
// append loop bit for bit, and every rate a run reuses from an earlier
// solve must equal a fresh solve's: across fabrics, traffic patterns,
// routings, clean and faulted runs, and fresh and reused Sims.
func TestTraceEmissionMatchesReference(t *testing.T) {
	for name, top := range emitTopologies(t) {
		hosts := top.Hosts()
		// The k=8 all-to-all runs among 32 hosts spanning two pods, to keep
		// the reference's per-interval re-solves cheap.
		a2aHosts := hosts
		if len(a2aHosts) > 32 {
			a2aHosts = a2aHosts[:32]
		}
		var optical []int
		for _, l := range top.Links {
			if l.Optical {
				optical = append(optical, l.ID)
			}
		}
		var faulted *fault.Trace
		if len(optical) > 0 {
			var err error
			faulted, err = fault.Generate(fault.GenConfig{Horizon: 3, Links: optical, Flaps: 6, MTTR: 0.3,
				PermanentFailures: 1, WakeStuckProb: 0.25, WakeStuckExtra: 0.5}, 7)
			if err != nil {
				t.Fatal(err)
			}
		}
		reused := New(top)
		for _, pattern := range []traffic.Pattern{traffic.Ring, traffic.AllToAll} {
			job := traffic.Job{ID: 1, Hosts: hosts, Period: 1, CommRatio: 0.5, Rate: 40 * units.Gbps, Pattern: pattern}
			if pattern == traffic.AllToAll {
				job.Hosts = a2aHosts
			}
			flows, err := job.Flows(3)
			if err != nil {
				t.Fatal(err)
			}
			for _, routing := range []Routing{HashECMP, ConcentrateRouting} {
				for _, tr := range []*fault.Trace{nil, faulted} {
					for _, fresh := range []bool{true, false} {
						label := fmt.Sprintf("%s/%v/%v/faulted=%v/fresh=%v", name, pattern, routing, tr != nil, fresh)
						s := reused
						if fresh {
							s = New(top)
						}
						s.Routing, s.Faults = routing, tr
						res, err := s.Run(flows)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						links, switches := referenceTraces(t, s, res, flows)
						for id := range links {
							if !sameTrace(res.LinkTrace[id], links[id]) {
								t.Fatalf("%s: link %d trace\n got %v\nwant %v", label, id, res.LinkTrace[id], links[id])
							}
						}
						for id := range switches {
							if !sameTrace(res.SwitchTrace[id], switches[id]) {
								t.Fatalf("%s: node %d trace\n got %v\nwant %v", label, id, res.SwitchTrace[id], switches[id])
							}
						}
						checkTraceLayout(t, label, top, res)
					}
				}
			}
		}
	}
}

// A remembered solve is reused only when the capacity slice, the demands
// and the path slices all repeat. Identical rows under another capacity
// slice must be solved again, and so must rows whose demands or paths
// change.
func TestSolveReuseKeys(t *testing.T) {
	// Two capacity slices cut from one arena; link 1 has none in the
	// second.
	arena := []float64{100, 100, 100, 100, 0, 100}
	clean, dead := arena[0:3:3], arena[3:6:6]
	shared := [][]int32{{0, 1}, {1, 2}} // both rows cross link 1
	apart := [][]int32{{0}, {2}}
	var ss solveScratch
	for i, step := range []struct {
		caps    []float64
		demands []float64
		paths   [][]int32
		want    []float64
	}{
		{clean, []float64{80, 80}, shared, []float64{50, 50}},
		{clean, []float64{80, 80}, shared, []float64{50, 50}}, // reused
		{dead, []float64{80, 80}, shared, []float64{0, 0}},    // link 1 died
		{clean, []float64{80, 80}, shared, []float64{50, 50}},
		{clean, []float64{80, 80}, apart, []float64{80, 80}}, // paths changed
		{clean, []float64{10, 80}, apart, []float64{10, 80}}, // demands changed
	} {
		ss.demands = append(ss.demands[:0], step.demands...)
		ss.paths = append(ss.paths[:0], step.paths...)
		rates, err := ss.rates(step.caps)
		if err != nil {
			t.Fatal(err)
		}
		if rates[0] != step.want[0] || rates[1] != step.want[1] {
			t.Errorf("step %d: rates = %v, want %v", i, rates, step.want)
		}
	}
}

// Within one epoch, consecutive intervals whose rows keep their count but
// change a demand or a path are solved again: two flows share a
// destination link, then one demand drops, then the other flow moves to a
// disjoint path.
func TestRunResolvesChangedRows(t *testing.T) {
	top := smallTopo(t)
	byEdge := map[int][]int{}
	var edges []int
	for _, h := range top.Hosts() {
		e, err := top.EdgeOf(h)
		if err != nil {
			t.Fatal(err)
		}
		if byEdge[e] == nil {
			edges = append(edges, e)
		}
		byEdge[e] = append(byEdge[e], h)
	}
	x, dst := byEdge[edges[0]][0], byEdge[edges[0]][1]
	y, w := byEdge[edges[1]][0], byEdge[edges[1]][1]
	g := float64(units.Gbps)
	flows := []traffic.Flow{
		{Src: x, Dst: dst, Demand: 100 * units.Gbps, Start: 0, End: 1},
		{Src: y, Dst: dst, Demand: 100 * units.Gbps, Start: 0, End: 1},
		{Src: x, Dst: dst, Demand: 20 * units.Gbps, Start: 1, End: 2},
		{Src: y, Dst: dst, Demand: 100 * units.Gbps, Start: 1, End: 2},
		{Src: x, Dst: dst, Demand: 20 * units.Gbps, Start: 2, End: 3},
		{Src: y, Dst: w, Demand: 100 * units.Gbps, Start: 2, End: 3},
	}
	want := []float64{50 * g, 50 * g, 20 * g, 80 * g, 20 * g, 100 * g}
	res, err := New(top).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Flows {
		if math.Abs(st.DeliveredBits-want[i]) > 1e-6*g {
			t.Errorf("flow %d: delivered %v bits, want %v", i, st.DeliveredBits, want[i])
		}
	}
}

// The capacity slice is reused across runs and Sim.Top is an exported
// field, so a run must not reuse the previous run's last solve even when
// its capacity slice, paths and demands are the same slices: here the
// topology is swapped for one of the same shape with slower links between
// two runs on one Sim.
func TestSolveReuseClearedBetweenRuns(t *testing.T) {
	slow, err := fattree.BuildThreeTier(4, 10*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	top := smallTopo(t)
	hosts := top.Hosts()
	flows := []traffic.Flow{{Src: hosts[0], Dst: hosts[1], Demand: 80 * units.Gbps, Start: 0, End: 1}}
	s := New(top)
	first, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if first.Flows[0].DeliveredBits != 80e9 {
		t.Fatalf("an uncontended flow delivered %v bits, want 80e9", first.Flows[0].DeliveredBits)
	}
	s.Top = slow
	second, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if second.Flows[0].DeliveredBits != 10e9 {
		t.Errorf("delivered %v bits over 10G links, want 10e9: the previous run's solve was reused", second.Flows[0].DeliveredBits)
	}
}

// A warm Run allocates only what its Result owns: the Result, its flow
// stats, the trace arena and the trace headers.
func TestWarmRunAllocs(t *testing.T) {
	top, err := fattree.BuildThreeTier(8, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(top)
	if _, err := s.Run(flows); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Run(flows); err != nil {
			t.Fatal(err)
		}
	})
	// Result, Flows, the segment arena and the trace headers.
	if allocs > 4 {
		t.Errorf("warm Run allocates %.1f objects, want <= 4", allocs)
	}
}

// A warm faulted Run allocates its Result as a fault-free one does, plus
// the FaultReport and the compiled fault timeline: the timeline, its
// per-link reference counts, its epoch starts, dead counts and dead-set
// headers, and one arena holding every dead set.
func TestWarmFaultedRunAllocs(t *testing.T) {
	top := smallTopo(t)
	st := scratchSteps(t, top)[0]
	s := New(top)
	s.Faults = st.faults
	res, err := s.Run(st.flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Epochs < 8 {
		t.Fatalf("the trace splits the run into %d epochs, want at least 8", res.Faults.Epochs)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Run(st.flows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4+1+6 {
		t.Errorf("warm faulted Run allocates %.1f objects, want <= 11", allocs)
	}
}
