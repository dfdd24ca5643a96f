package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// scratchStep is one run in a scratch-reuse sequence: its flows and fault
// trace, and whether it must fail.
type scratchStep struct {
	label   string
	flows   []traffic.Flow
	faults  *fault.Trace
	wantErr bool
}

// scratchSteps builds the reuse sequence: a large faulted run, a smaller
// fault-free one, a faulted run under a different trace with more epochs,
// two failing runs (mid-routing and at validation), and a normal run again.
func scratchSteps(t *testing.T, top *fattree.Topology) []scratchStep {
	t.Helper()
	hosts := top.Hosts()
	var optical []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	jobFlows := func(p traffic.Pattern, iters int) []traffic.Flow {
		t.Helper()
		job := traffic.Job{ID: 1, Hosts: hosts, Period: 1, CommRatio: 0.5,
			Rate: 10 * units.Gbps, Pattern: p}
		flows, err := job.Flows(iters)
		if err != nil {
			t.Fatal(err)
		}
		return flows
	}
	trace := func(flaps int, seed uint64) *fault.Trace {
		t.Helper()
		tr, err := fault.Generate(fault.GenConfig{
			Horizon: 8, Links: optical, Flaps: flaps, MTTR: 0.3,
			PermanentFailures: 2, WakeStuckProb: 0.25, WakeStuckExtra: 0.5,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	large := jobFlows(traffic.AllToAll, 8)
	// The mid-routing failure sits after routable flows: Paths rejects a
	// flow whose source is its destination, so the run stops after some
	// routes are already in the arena.
	broken := append(append([]traffic.Flow(nil), large[:40]...),
		traffic.Flow{Src: hosts[0], Dst: hosts[0], Start: 0.1, End: 0.6, Demand: units.Gbps})
	empty := append(append([]traffic.Flow(nil), large[:10]...),
		traffic.Flow{Src: hosts[0], Dst: hosts[1], Start: 1, End: 1, Demand: units.Gbps})
	return []scratchStep{
		{label: "large faulted", flows: large, faults: trace(12, 1)},
		{label: "small clean", flows: jobFlows(traffic.Ring, 2)},
		{label: "more epochs", flows: jobFlows(traffic.AllToAll, 6), faults: trace(40, 2)},
		{label: "fails mid-routing", flows: broken, faults: trace(12, 3), wantErr: true},
		{label: "fails validation", flows: empty, faults: trace(12, 3), wantErr: true},
		{label: "normal again", flows: large, faults: trace(12, 1)},
	}
}

// Scratch arenas must never leak between runs: every run in a sequence on
// one Sim — including after an early error return — equals the same run
// on a fresh Sim, and earlier results stay intact after later runs (no
// Result aliases the scratch).
func TestScratchReuseMatchesFreshSim(t *testing.T) {
	top := smallTopo(t)
	steps := scratchSteps(t, top)
	for _, routing := range []Routing{HashECMP, ConcentrateRouting} {
		reused := New(top)
		reused.Routing = routing
		var got, want []*Result
		for _, st := range steps {
			reused.Faults = st.faults
			res, err := reused.Run(st.flows)
			fresh := New(top)
			fresh.Routing, fresh.Faults = routing, st.faults
			ref, refErr := fresh.Run(st.flows)
			if st.wantErr {
				if err == nil || refErr == nil || err.Error() != refErr.Error() {
					t.Fatalf("%v %s: err = %v, fresh err = %v, want the same error", routing, st.label, err, refErr)
				}
				continue
			}
			if err != nil || refErr != nil {
				t.Fatalf("%v %s: err = %v, fresh err = %v", routing, st.label, err, refErr)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%v %s: reused Sim differs from a fresh one", routing, st.label)
			}
			got, want = append(got, res), append(want, ref)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v: result %d changed after later runs on the same Sim", routing, i)
			}
		}
	}
}

// The route arena holds exactly one route per flow-epoch overlap — the
// epochs the dense flows × epochs layout populated — not one per flow per
// epoch.
func TestRouteArenaIsFlowEpochOverlap(t *testing.T) {
	top := smallTopo(t)
	st := scratchSteps(t, top)[2]
	s := New(top)
	s.Faults = st.faults
	res, err := s.Run(st.flows)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := fault.Compile(st.faults, res.Horizon, len(top.Links), top.LinksOf)
	if err != nil {
		t.Fatal(err)
	}
	overlap := 0
	for _, f := range st.flows {
		for e := range tl.Starts {
			et0, et1 := tl.Starts[e], res.Horizon
			if e+1 < len(tl.Starts) {
				et1 = tl.Starts[e+1]
			}
			if !(f.End <= et0 || f.Start >= et1) {
				overlap++
			}
		}
	}
	dense := len(st.flows) * tl.NumEpochs()
	if got := len(s.warm.scratch.routes); got != overlap {
		t.Errorf("route arena = %d routes, want the flow-epoch overlap %d (dense would be %d)", got, overlap, dense)
	}
	if 4*overlap > dense {
		t.Errorf("overlap %d is not well below dense %d: the test trace has too few epochs", overlap, dense)
	}
	if res.Faults.Epochs != tl.NumEpochs() {
		t.Errorf("report epochs = %d, want %d", res.Faults.Epochs, tl.NumEpochs())
	}
}

// The path cache is keyed by (src, dst) only, so a Sim whose Top changes
// between runs must drop it: hosts 7 and 10 exist in both k=4 builds, but
// the two-tier tree's paths between them are not the three-tier tree's.
func TestPathCacheFollowsTopology(t *testing.T) {
	three := smallTopo(t)
	two, err := fattree.BuildTwoTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []int{7, 10}
	for _, h := range hosts {
		if three.Nodes[h].IsSwitch() || two.Nodes[h].IsSwitch() {
			t.Fatalf("node %d is not a host in both trees", h)
		}
	}
	job := traffic.Job{ID: 1, Hosts: hosts, Period: 1, CommRatio: 0.5,
		Rate: 10 * units.Gbps, Pattern: traffic.AllToAll}
	flows, err := job.Flows(2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(three)
	if _, err := s.Run(flows); err != nil {
		t.Fatal(err)
	}
	s.Top = two
	got, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(two).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused Sim routed on links %v, a fresh one on %v", busyLinks(got), busyLinks(want))
	}
}

// Reset clears every exported field and keeps the warm state: a run after
// Reset matches a fresh Sim configured the same way, and it reuses the
// path table when the topology is the same one, enumerating no pair again.
func TestResetKeepsOnlyWarmState(t *testing.T) {
	base := smallTopo(t)
	enumerations := 0
	top := new(fattree.Topology)
	*top = *base
	top.SetPathFn(func(links, ends []int, src, dst int) ([]int, []int, error) {
		enumerations++
		return base.AppendPaths(links, ends, src, dst)
	})
	steps := scratchSteps(t, top)
	s := New(top)
	s.Routing, s.ECMPSeed, s.Faults, s.Models = ConcentrateRouting, 9, steps[0].faults, &Models{}
	if _, err := s.Run(steps[0].flows); err != nil {
		t.Fatal(err)
	}
	enumerated := enumerations
	s.Reset(top)
	if !reflect.DeepEqual(*s, Sim{Top: top, warm: s.warm}) {
		t.Fatalf("Reset kept a config field: %+v", *s)
	}
	st := steps[2]
	s.Faults = st.faults
	got, err := s.Run(st.flows)
	if err != nil {
		t.Fatal(err)
	}
	if enumerations != enumerated {
		t.Errorf("Reset on the same topology dropped the path table: %d pairs enumerated again", enumerations-enumerated)
	}
	fresh := New(top)
	fresh.Faults = st.faults
	want, err := fresh.Run(st.flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a run after Reset differs from a fresh Sim")
	}
}

// Trim keeps warm state up to WarmCap and releases all of it above.
func TestTrimReleasesAboveCap(t *testing.T) {
	top := smallTopo(t)
	st := scratchSteps(t, top)[0]
	s := New(top)
	s.Faults = st.faults
	if _, err := s.Run(st.flows); err != nil {
		t.Fatal(err)
	}
	kept := s.WarmBytes()
	if kept == 0 || kept > WarmCap {
		t.Fatalf("a k=4 faulted run keeps %d warm bytes, want (0, %d]", kept, WarmCap)
	}
	s.Trim()
	if s.WarmBytes() != kept {
		t.Errorf("Trim under the cap changed warm bytes %d -> %d", kept, s.WarmBytes())
	}
	s.warm.scratch.emitted = make([]deviceSegment, 0, WarmCap/int(unsafe.Sizeof(deviceSegment{}))+1)
	s.Trim()
	if got := s.WarmBytes(); got != 0 {
		t.Errorf("Trim over the cap kept %d bytes, want 0", got)
	}
	again, err := s.Run(st.flows)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(top)
	fresh.Faults = st.faults
	want, err := fresh.Run(st.flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("a run after Trim differs from a fresh Sim")
	}
}
