package netsim_test

import (
	"reflect"
	"testing"

	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// TestZooReusedSimIdentical runs an all-to-all job on zoo topologies —
// which exercise the custom path enumerator instead of the native Clos
// walk — clean, faulted and clean again on one Sim, and checks each run
// equals the same run on a fresh Sim.
func TestZooReusedSimIdentical(t *testing.T) {
	for _, name := range []string{"dragonfly", "torus3d", "railopt"} {
		top, _, err := topo.Build(name, topo.Spec{Hosts: 16, LinkSpeed: 100 * units.Gbps})
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		job := traffic.Job{
			ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
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
		trace, err := fault.Generate(fault.GenConfig{
			Horizon: 2, Links: optical,
			Flaps: 4, MTTR: 0.3, PermanentFailures: 1,
			WakeStuckProb: 0.25, WakeStuckExtra: 0.3,
		}, 7)
		if err != nil {
			t.Fatalf("%s: fault.Generate: %v", name, err)
		}
		reused := netsim.New(top)
		reused.Routing = netsim.ConcentrateRouting
		for _, tc := range []struct {
			label string
			tr    *fault.Trace
		}{
			{"clean", nil},
			{"faulted", trace},
			{"clean again", nil},
		} {
			fresh := netsim.New(top)
			fresh.Routing = netsim.ConcentrateRouting
			fresh.Faults = tc.tr
			want, err := fresh.Run(flows)
			if err != nil {
				t.Fatalf("%s/%s: fresh Run: %v", name, tc.label, err)
			}
			reused.Faults = tc.tr
			got, err := reused.Run(flows)
			if err != nil {
				t.Fatalf("%s/%s: reused Run: %v", name, tc.label, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s/%s: reused Sim result differs from a fresh Sim's", name, tc.label)
			}
			if tc.tr != nil && want.Faults == nil {
				t.Fatalf("%s: faulted run reported no fault summary", name)
			}
		}
	}
}
