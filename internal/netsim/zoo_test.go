package netsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// zooJob is an all-to-all job over hosts, and a fault trace over top's
// optical links (nil when it has none), at the topologies scenario's
// shape.
func zooJob(t *testing.T, top *fattree.Topology, hosts []int) ([]traffic.Flow, *fault.Trace) {
	t.Helper()
	job := traffic.Job{
		ID: 1, Hosts: hosts, Period: 1, CommRatio: 0.5,
		Rate: 10 * units.Gbps, Pattern: traffic.AllToAll,
	}
	flows, err := job.Flows(2)
	if err != nil {
		t.Fatal(err)
	}
	var optical []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	if len(optical) == 0 {
		return flows, nil
	}
	trace, err := fault.Generate(fault.GenConfig{
		Horizon: 2, Links: optical,
		Flaps: 4, MTTR: 0.3, PermanentFailures: 1,
		WakeStuckProb: 0.25, WakeStuckExtra: 0.3,
	}, 7)
	if err != nil {
		t.Fatalf("fault.Generate: %v", err)
	}
	return flows, trace
}

// TestZooReusedSimIdentical walks one warm Sim across every zoo member at
// 16, 24 and 32 hosts and then 16 again, each a fresh build as a zoo row
// makes it, running an all-to-all job clean, faulted and clean again on
// each. Every run must equal the same run on a cold Sim. The warm Sim's
// path table is emptied and refilled at every topology change, so this
// covers its reused arenas, including the solve memo's path-identity
// compare: a reused arena can give a new topology's path the address and
// length of an old one.
func TestZooReusedSimIdentical(t *testing.T) {
	warm := new(netsim.Sim)
	for _, hosts := range []int{16, 24, 32, 16} {
		for _, name := range topo.Names() {
			top, _, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: 100 * units.Gbps})
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", name, hosts, err)
			}
			flows, trace := zooJob(t, top, top.Hosts())
			warm.Reset(top)
			warm.Routing = netsim.ConcentrateRouting
			for _, tc := range []struct {
				label string
				tr    *fault.Trace
			}{
				{"clean", nil},
				{"faulted", trace},
				{"clean again", nil},
			} {
				label := fmt.Sprintf("%s/%d/%s", name, hosts, tc.label)
				cold := netsim.New(top)
				cold.Routing = netsim.ConcentrateRouting
				cold.Faults = tc.tr
				want, err := cold.Run(flows)
				if err != nil {
					t.Fatalf("%s: cold Run: %v", label, err)
				}
				warm.Faults = tc.tr
				got, err := warm.Run(flows)
				if err != nil {
					t.Fatalf("%s: warm Run: %v", label, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: warm Sim result differs from a cold Sim's", label)
				}
				if tc.tr != nil && want.Faults == nil {
					t.Fatalf("%s: faulted run reported no fault summary", label)
				}
			}
		}
	}
}

// TestZooWarmStateUnderCap runs a 32-host topologies row's phases (a
// 4-host low-load phase, full load, full load under faults) on every zoo
// member through one Sim, as a worker slot does, and checks the warm
// state stays within WarmCap after each row. Above it, the engine's Trim
// would discard the path table after every 32-host row and the table's
// reuse would be lost on those rows.
func TestZooWarmStateUnderCap(t *testing.T) {
	s := new(netsim.Sim)
	for _, name := range topo.Names() {
		top, _, err := topo.Build(name, topo.Spec{Hosts: 32, LinkSpeed: 100 * units.Gbps})
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		s.Reset(top)
		s.Routing = netsim.ConcentrateRouting
		hs := top.Hosts()
		low, _ := zooJob(t, top, hs[:4])
		full, trace := zooJob(t, top, hs)
		for _, run := range []struct {
			flows []traffic.Flow
			tr    *fault.Trace
		}{{low, nil}, {full, nil}, {full, trace}} {
			s.Faults = run.tr
			if _, err := s.Run(run.flows); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		kept := s.WarmBytes()
		if kept == 0 || kept > netsim.WarmCap {
			t.Fatalf("%s: a 32-host row keeps %d warm bytes, want (0, %d]", name, kept, netsim.WarmCap)
		}
		s.Trim()
		if got := s.WarmBytes(); got != kept {
			t.Fatalf("%s: Trim changed warm bytes %d -> %d", name, kept, got)
		}
	}
}
