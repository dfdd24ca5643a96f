package netsim

import (
	"reflect"
	"testing"

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
	run := func(s *Sim, flows []traffic.Flow, workers int) (*Result, error) {
		if workers == 1 {
			return s.Run(flows)
		}
		return s.RunParallel(flows, workers)
	}
	for _, routing := range []Routing{HashECMP, ConcentrateRouting} {
		for _, workers := range []int{1, 3} {
			reused := New(top)
			reused.Routing = routing
			var got, want []*Result
			for _, st := range steps {
				reused.Faults = st.faults
				res, err := run(reused, st.flows, workers)
				fresh := New(top)
				fresh.Routing, fresh.Faults = routing, st.faults
				ref, refErr := run(fresh, st.flows, workers)
				if st.wantErr {
					if err == nil || refErr == nil || err.Error() != refErr.Error() {
						t.Fatalf("%v/%d %s: err = %v, fresh err = %v, want the same error", routing, workers, st.label, err, refErr)
					}
					continue
				}
				if err != nil || refErr != nil {
					t.Fatalf("%v/%d %s: err = %v, fresh err = %v", routing, workers, st.label, err, refErr)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%v/%d %s: reused Sim differs from a fresh one", routing, workers, st.label)
				}
				got, want = append(got, res), append(want, ref)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%v/%d: result %d changed after later runs on the same Sim", routing, workers, i)
				}
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
	if got := len(s.scratch.routes); got != overlap {
		t.Errorf("route arena = %d routes, want the flow-epoch overlap %d (dense would be %d)", got, overlap, dense)
	}
	if 4*overlap > dense {
		t.Errorf("overlap %d is not well below dense %d: the test trace has too few epochs", overlap, dense)
	}
	if res.Faults.Epochs != tl.NumEpochs() {
		t.Errorf("report epochs = %d, want %d", res.Faults.Epochs, tl.NumEpochs())
	}
}
