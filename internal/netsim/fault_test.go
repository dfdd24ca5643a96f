package netsim

import (
	"math"
	"reflect"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// faultFlows builds a small all-pairs-ish workload over the topology.
func faultFlows(top *fattree.Topology, demand units.Bandwidth) []traffic.Flow {
	hosts := top.Hosts()
	var flows []traffic.Flow
	for i, src := range hosts {
		dst := hosts[(i+len(hosts)/2)%len(hosts)]
		flows = append(flows, traffic.Flow{Src: src, Dst: dst, Demand: demand, Start: 0, End: 4})
	}
	return flows
}

// A flow whose hashed ECMP path loses a link must reroute onto a surviving
// path and keep delivering; the dead link carries nothing during the outage.
func TestFaultRerouteAroundDeadLink(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 50 * units.Gbps, Start: 0, End: 4}

	victim := victimLink(t, s, fl)
	tr := &fault.Trace{}
	tr.LinkDown(1, victim) // victim dead during [1,3)
	tr.LinkUp(3, victim)
	s.Faults = tr
	res, err := s.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Flows[0]
	if st.Downtime != 0 {
		t.Fatalf("flow stalled %v despite surviving ECMP paths", st.Downtime)
	}
	// Full delivery: the reroute keeps the flow at its demand.
	want := float64(fl.Demand) * 4
	if math.Abs(st.DeliveredBits-want) > 1 {
		t.Errorf("delivered = %v, want %v", st.DeliveredBits, want)
	}
	if got := rateAt(res.LinkTrace[victim], 2); got != 0 {
		t.Errorf("dead link carried %v at t=2", got)
	}
	if res.Faults == nil {
		t.Fatal("faulted run returned nil FaultReport")
	}
	if res.Faults.Events != 2 || res.Faults.Epochs != 3 {
		t.Errorf("report = %+v, want 2 events over 3 epochs", res.Faults)
	}
	if res.Faults.Reroutes == 0 {
		t.Error("report counted no reroutes")
	}
	if res.Faults.StalledFlows != 0 {
		t.Errorf("report counted %d stalled flows, want 0", res.Faults.StalledFlows)
	}
}

// Killing a host's access link leaves the flow no path at all: it stalls,
// accumulates downtime, and resumes on recovery.
func TestFaultStallAndRecovery(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	hosts := top.Hosts()
	fl := traffic.Flow{Src: hosts[0], Dst: hosts[len(hosts)-1], Demand: 50 * units.Gbps, Start: 0, End: 4}
	access := top.LinksOf(hosts[0])
	if len(access) != 1 {
		t.Fatalf("host has %d access links, want 1", len(access))
	}

	tr := &fault.Trace{}
	tr.LinkDown(1, access[0]) // no path during [1,3)
	tr.LinkUp(3, access[0])
	s.Faults = tr
	res, err := s.Run([]traffic.Flow{fl})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Flows[0]
	if math.Abs(float64(st.Downtime)-2) > 1e-12 {
		t.Errorf("downtime = %v, want 2", st.Downtime)
	}
	// Delivery only over the 2 surviving seconds.
	want := float64(fl.Demand) * 2
	if math.Abs(st.DeliveredBits-want) > 1 {
		t.Errorf("delivered = %v, want %v", st.DeliveredBits, want)
	}
	if res.Faults.StalledFlows != 1 {
		t.Errorf("stalled flows = %d, want 1", res.Faults.StalledFlows)
	}
	if math.Abs(float64(res.Faults.StallSeconds)-2) > 1e-12 {
		t.Errorf("stall seconds = %v, want 2", res.Faults.StallSeconds)
	}
}

// A switch failure takes all incident links down: flows through it reroute,
// and the switch's trace shows zero rate during the outage.
func TestFaultSwitchFailure(t *testing.T) {
	top := smallTopo(t)
	s := New(top)
	flows := faultFlows(top, 20*units.Gbps)

	// Fail one core switch (a switch whose links are all optical and which
	// sits on cross-pod paths).
	core := -1
	for _, sw := range top.SwitchIDs() {
		links := top.LinksOf(sw)
		allOptical := true
		for _, l := range links {
			if !top.Links[l].Optical {
				allOptical = false
				break
			}
		}
		if allOptical {
			core = sw
			break
		}
	}
	if core < 0 {
		t.Fatal("no core switch found")
	}
	tr := &fault.Trace{}
	tr.SwitchDown(1, core)
	tr.SwitchUp(3, core)
	s.Faults = tr
	res, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if got := rateAt(res.SwitchTrace[core], 2); got != 0 {
		t.Errorf("failed switch carried %v at t=2", got)
	}
	for i, st := range res.Flows {
		if st.Downtime != 0 {
			t.Errorf("flow %d stalled %v; core failure should be routable-around", i, st.Downtime)
		}
	}
}

// Seeded fault scenarios must be bit-reproducible: the same generated trace
// yields identical results across repeated runs.
func TestFaultDeterminismRepeatedRuns(t *testing.T) {
	top := smallTopo(t)
	flows := faultFlows(top, 30*units.Gbps)
	var optical []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	cfg := fault.GenConfig{
		Horizon: 4, Links: optical, Flaps: 8, MTTR: 0.5,
		PermanentFailures: 1, WakeStuckProb: 0.5, WakeStuckExtra: 0.4,
	}
	run := func() *Result {
		t.Helper()
		trace, err := fault.Generate(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		s := New(top)
		s.Faults = trace
		res, err := s.Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Faults == nil || first.Faults.Events == 0 {
		t.Fatalf("generated trace produced no in-horizon events: %+v", first.Faults)
	}
	if !reflect.DeepEqual(first, run()) {
		t.Error("repeated runs differ for the same seed")
	}
}

// Path-cache invalidation: after a link fails and recovers, cached per-epoch
// alive filters must refresh, so post-recovery flow rates match a from-scratch
// fault-free simulation of the same span — and a Sim reused after a faulted
// run behaves identically to a fresh one.
func TestFaultPathCacheInvalidation(t *testing.T) {
	top := smallTopo(t)
	flows := faultFlows(top, 30*units.Gbps)

	s := New(top)
	clean, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	victim := victimLink(t, s, flows[0])
	tr := &fault.Trace{}
	tr.LinkDown(1, victim) // dead during [1,2), recovered for [2,4)
	tr.LinkUp(2, victim)
	s.Faults = tr
	faulted, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	// After recovery the routing and rates must match the fault-free run:
	// every link's rate at t=3 agrees to 1e-9.
	for _, l := range top.Links {
		want := float64(rateAt(clean.LinkTrace[l.ID], 3))
		got := float64(rateAt(faulted.LinkTrace[l.ID], 3))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("link %d rate at t=3: %v, want %v (stale path cache?)", l.ID, got, want)
		}
	}
	// And during the outage the victim must be drained.
	if got := rateAt(faulted.LinkTrace[victim], 1.5); got != 0 {
		t.Errorf("victim link carried %v mid-outage", got)
	}

	// Reusing the Sim with faults cleared must reproduce the clean run
	// exactly (cached alive filters from the faulted run are stale).
	s.Faults = nil
	again, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, again) {
		t.Error("Sim reuse after a faulted run differs from the fresh clean run")
	}

	// A fresh Sim with the same trace agrees with the warm-cache faulted
	// run bit-for-bit.
	s2 := New(top)
	s2.Faults = tr
	fresh, err := s2.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(faulted, fresh) {
		t.Error("warm path cache changed faulted results")
	}
}

// An empty trace must leave results byte-identical to a nil one.
func TestFaultEmptyTraceIsNoop(t *testing.T) {
	top := smallTopo(t)
	flows := faultFlows(top, 30*units.Gbps)
	a := New(top)
	clean, err := a.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	b := New(top)
	b.Faults = &fault.Trace{}
	empty, err := b.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, empty) {
		t.Error("empty fault trace changed results")
	}
	if empty.Faults != nil {
		t.Error("empty trace produced a FaultReport")
	}
}

// Concentrate routing under faults: still deterministic, and gated (down at
// t<=0) switches stay off unless a failure forces traffic through... here we
// just check rerouting respects dead links under ConcentrateRouting too.
func TestFaultConcentrateRouting(t *testing.T) {
	top := smallTopo(t)
	flows := faultFlows(top, 20*units.Gbps)
	s := New(top)
	s.Routing = ConcentrateRouting
	if _, err := s.Run(flows); err != nil {
		t.Fatal(err)
	}
	victim := victimLink(t, s, flows[0])
	tr := &fault.Trace{}
	tr.FailLink(0, victim) // dead for the whole run
	s.Faults = tr
	res, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if got := rateAt(res.LinkTrace[victim], 2); got != 0 {
		t.Errorf("dead link carried %v under concentrate routing", got)
	}
	res2 := func() *Result {
		s2 := New(top)
		s2.Routing = ConcentrateRouting
		s2.Faults = tr
		r, err := s2.Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	if !reflect.DeepEqual(res, res2) {
		t.Error("concentrate routing under faults is not deterministic")
	}
}

// Invalid fault traces surface as errors from Run, not corrupt results.
func TestFaultValidation(t *testing.T) {
	top := smallTopo(t)
	flows := faultFlows(top, 20*units.Gbps)
	s := New(top)
	bad := &fault.Trace{}
	bad.LinkDown(1, len(top.Links)+5)
	s.Faults = bad
	if _, err := s.Run(flows); err == nil {
		t.Error("out-of-range fault target accepted")
	}
}
