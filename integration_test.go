package netpowerprop

// End-to-end integration tests: the full pipelines a user of this library
// would run, crossing module boundaries — the scheduler's placement driving
// the fabric simulation, the analytical model feeding the cost model, and
// the OCS/scheduler stack sharing one fabric description.

import (
	"math"
	"sort"
	"testing"

	"netpowerprop/internal/core"
	"netpowerprop/internal/device"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/ocs"
	"netpowerprop/internal/power"
	"netpowerprop/internal/schedule"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// TestEndToEndScheduleThenTailor chains §4.2's two ideas: the job
// scheduler concentrates placement, then the OCS tailors the topology to
// the placed job's traffic — the combination powering off most switches.
func TestEndToEndScheduleThenTailor(t *testing.T) {
	f, err := ocs.ThreeTierFabric(8, 400*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := schedule.Place(f, []schedule.JobReq{{ID: 1, Hosts: 8}}, schedule.Concentrate)
	if err != nil {
		t.Fatal(err)
	}
	// Build the job's ring matrix over its placed hosts (synthetic IDs).
	ids := make([]int, 8)
	for i := range ids {
		ids[i] = i
	}
	m, err := (traffic.Job{ID: 1, Hosts: ids, Period: 10, CommRatio: 0.1,
		Rate: 100 * units.Gbps, Pattern: traffic.Ring}).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ocs.Tailor(f, m)
	if err != nil {
		t.Fatal(err)
	}
	// The OCS plan should be at least as concentrated as the scheduler's
	// estimate (it additionally knows the traffic pattern).
	if plan.ActiveSwitches() > placed.ActiveSwitches() {
		t.Errorf("tailored active (%d) exceeds scheduler estimate (%d)",
			plan.ActiveSwitches(), placed.ActiveSwitches())
	}
	cmp, err := ocs.Compare(plan, ocs.DefaultCompareParams())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Savings < 0.5 {
		t.Errorf("combined §4.2 savings = %v, want > 0.5", cmp.Savings)
	}
}

// TestEndToEndMultiJobConcentration runs the complete §4.2 story on the
// simulator: two training jobs are placed by the scheduler (concentrate
// vs. spread), realized on an explicit fat tree, their flows simulated,
// and the network energy compared with unused switches powered off. The
// concentrated placement must deliver the same bits for less energy.
func TestEndToEndMultiJobConcentration(t *testing.T) {
	const k = 8
	f, err := ocs.ThreeTierFabric(k, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	top, err := fattree.BuildThreeTier(k, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.JobReq{{ID: 1, Hosts: 8}, {ID: 2, Hosts: 4}}

	runPolicy := func(pol schedule.Policy) (energy float64, delivered float64) {
		t.Helper()
		placed, err := schedule.Place(f, jobs, pol)
		if err != nil {
			t.Fatal(err)
		}
		mapping := placedHosts(t, placed, top)
		var flows []traffic.Flow
		for _, req := range jobs {
			job := traffic.Job{ID: req.ID, Hosts: mapping[req.ID], Period: 1,
				CommRatio: 0.2, Rate: 20 * units.Gbps, Pattern: traffic.Ring}
			fl, err := job.Flows(2)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, fl...)
		}
		s := netsim.New(top)
		res, err := s.Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Flows {
			delivered += st.DeliveredBits
		}
		// Energy with unused switches powered off: only switches that
		// carried traffic draw power (two-state at 10% proportionality).
		model, err := powerModel()
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range top.SwitchIDs() {
			tr := res.SwitchTrace[sw]
			if tr.BusyTime() == 0 {
				continue // powered off by the scheduler
			}
			e, err := tr.Energy(model, device.SwitchCapacity, netsim.TwoState)
			if err != nil {
				t.Fatal(err)
			}
			energy += float64(e)
		}
		return energy, delivered
	}

	concEnergy, concBits := runPolicy(schedule.Concentrate)
	spreadEnergy, spreadBits := runPolicy(schedule.Spread)
	if math.Abs(concBits-spreadBits) > 1e-3*spreadBits {
		t.Fatalf("policies delivered different work: %v vs %v bits", concBits, spreadBits)
	}
	if concEnergy >= spreadEnergy {
		t.Errorf("concentrated energy %v J should beat spread %v J", concEnergy, spreadEnergy)
	}
}

// placedHosts realizes a schedule on a fat tree: abstract edge i is the
// topology's i-th edge switch, and each placement takes the next free hosts
// under its edges in node-ID order.
func placedHosts(t *testing.T, s schedule.Schedule, top *fattree.Topology) map[int][]int {
	t.Helper()
	var edges []int
	for _, n := range top.Nodes {
		if n.Kind == fattree.KindEdge {
			edges = append(edges, n.ID)
		}
	}
	free := map[int][]int{} // edge node ID -> its unused hosts
	for _, h := range top.Hosts() {
		e, err := top.EdgeOf(h)
		if err != nil {
			t.Fatal(err)
		}
		free[e] = append(free[e], h)
	}
	out := map[int][]int{}
	for _, pl := range s.Placements {
		idxs := make([]int, 0, len(pl.HostsPerEdge))
		for i := range pl.HostsPerEdge {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			hs, n := free[edges[i]], pl.HostsPerEdge[i]
			if n > len(hs) {
				t.Fatalf("edge %d over-subscribed: %d > %d free hosts", i, n, len(hs))
			}
			out[pl.Job.ID] = append(out[pl.Job.ID], hs[:n]...)
			free[edges[i]] = hs[n:]
		}
	}
	return out
}

// powerModel builds the standard 750 W / 10%-proportional switch model.
func powerModel() (power.Model, error) {
	return power.NewModel(device.SwitchMaxPower, device.NetworkProportionality)
}

// TestEndToEndModelToCost chains the analytical model: Table 3 cell →
// §3.2 annualized dollars, verifying consistency between the two paths.
func TestEndToEndModelToCost(t *testing.T) {
	grid, err := core.ComputeSavingsGrid(core.Baseline(),
		[]units.Bandwidth{400 * units.Gbps}, []float64{0.50}, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	viaGrid, err := core.DefaultCostModel().Annualize(grid.Cell(0, 0).SavedPower)
	if err != nil {
		t.Fatal(err)
	}
	viaSection, err := core.Section32(0.50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(viaGrid.Total()-viaSection.Total()) > 1 {
		t.Errorf("two cost paths disagree: %v vs %v", viaGrid.Total(), viaSection.Total())
	}
}

// TestEndToEndEnergyConsistency cross-checks the analytical two-state
// model against the flow-level simulator on a topology both can express:
// a full k=4 three-tier fat tree at full-capacity host count, running the
// paper's 10%-duty workload. Both predict the same network energy per
// iteration for the switch class.
func TestEndToEndEnergyConsistency(t *testing.T) {
	const k = 4
	top, err := fattree.BuildThreeTier(k, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 1 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(1)
	if err != nil {
		t.Fatal(err)
	}
	s := netsim.New(top)
	res, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Energy(res, 0.10, netsim.TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// Analytical: every switch idles 0.9 s and is busy up to 0.1 s. The
	// ring only crosses a subset of switches, so the simulator's energy is
	// bounded by [all-idle, all-busy-during-comm].
	nSwitches := float64(len(top.SwitchIDs()))
	idleAll := nSwitches * 0.9 * 750 * 1.0 // W x s at 10% prop idle=675... compute exactly below
	_ = idleAll
	idlePower := 675.0 // 750 * (1-0.10)
	lo := nSwitches * idlePower * 1.0
	hi := nSwitches * (idlePower*0.9 + 750*0.1)
	got := float64(rep.SwitchEnergy)
	if got < lo-1e-6 || got > hi+1e-6 {
		t.Errorf("simulated switch energy %v outside analytical bounds [%v, %v]", got, lo, hi)
	}
}
