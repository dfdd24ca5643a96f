// Package netpowerprop's root benchmark harness regenerates every table
// and figure of the paper (see DESIGN.md's per-experiment index). Each
// benchmark reports the headline metric of its experiment alongside the
// timing, so `go test -bench=. -benchmem` doubles as the reproduction run.
package netpowerprop

import (
	"context"
	"testing"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/backbone"
	"netpowerprop/internal/chiplet"
	"netpowerprop/internal/core"
	"netpowerprop/internal/eee"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/ocs"
	"netpowerprop/internal/parking"
	"netpowerprop/internal/powergate"
	"netpowerprop/internal/rateadapt"
	"netpowerprop/internal/schedule"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
	"netpowerprop/internal/workload"
)

// BenchmarkFig1 regenerates the workload-scaling model of Fig. 1.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := workload.Fig1()
		if len(rows) != 3 {
			b.Fatal("fig1 rows")
		}
	}
}

// BenchmarkFig2 regenerates the baseline power breakdown of Fig. 2a/2b and
// reports the paper's two headline metrics.
func BenchmarkFig2(b *testing.B) {
	var share, eff float64
	for i := 0; i < b.N; i++ {
		cl, err := core.New(core.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		if bars := cl.Fig2a(); len(bars) != 3 {
			b.Fatal("fig2a bars")
		}
		_ = cl.Fig2bData()
		share = cl.NetworkShare()
		eff = cl.NetworkEfficiency()
	}
	b.ReportMetric(share*100, "net-share-%")
	b.ReportMetric(eff*100, "net-efficiency-%")
}

// BenchmarkTable3 regenerates the full savings grid and reports the
// paper's 400 G / 85% cell (paper: 8.8%).
func BenchmarkTable3(b *testing.B) {
	var cell float64
	for i := 0; i < b.N; i++ {
		g, err := core.Table3()
		if err != nil {
			b.Fatal(err)
		}
		cell = g.Cell(2, 3).Savings
	}
	b.ReportMetric(cell*100, "400G@85%-savings-%")
}

// BenchmarkFig3 regenerates the fixed-workload speedup curves (coarse
// grid) and reports the 400 G speedup at perfect proportionality.
func BenchmarkFig3(b *testing.B) {
	props := []float64{0, 0.25, 0.5, 0.75, 1}
	var speedup float64
	for i := 0; i < b.N; i++ {
		curves, err := core.Fig3(core.Baseline(), core.Table3Bandwidths(), props, core.AvgBudget)
		if err != nil {
			b.Fatal(err)
		}
		speedup = curves[2].Points[4].Speedup
	}
	b.ReportMetric(speedup*100, "400G@100%-speedup-%")
}

// BenchmarkFig4 regenerates the fixed-comm-ratio speedup curves and
// reports the paper's worked number: 800 G at 50% proportionality (~10%).
func BenchmarkFig4(b *testing.B) {
	props := []float64{0, 0.25, 0.5, 0.75, 1}
	var speedup float64
	for i := 0; i < b.N; i++ {
		curves, err := core.Fig4(core.Baseline(), core.Table3Bandwidths(), props, 0.10, core.AvgBudget)
		if err != nil {
			b.Fatal(err)
		}
		speedup = curves[3].Points[2].Speedup
	}
	b.ReportMetric(speedup*100, "800G@50%-speedup-%")
}

// BenchmarkCost regenerates §3.2's cost example (paper: ~$416k/yr
// electricity at 50% proportionality).
func BenchmarkCost(b *testing.B) {
	var dollars float64
	for i := 0; i < b.N; i++ {
		s, err := core.Section32(0.50)
		if err != nil {
			b.Fatal(err)
		}
		dollars = s.ElectricityPerYear
	}
	b.ReportMetric(dollars/1000, "electricity-k$/yr")
}

// BenchmarkAblationInterp re-runs Table 3 under the per-host interpolation
// mode (DESIGN.md's calibration ablation).
func BenchmarkAblationInterp(b *testing.B) {
	base := core.Baseline()
	base.Interp = fattree.InterpPerHost
	var cell float64
	for i := 0; i < b.N; i++ {
		g, err := core.ComputeSavingsGrid(base, core.Table3Bandwidths(), core.Table3Proportionalities(), 0.10)
		if err != nil {
			b.Fatal(err)
		}
		cell = g.Cell(2, 3).Savings
	}
	b.ReportMetric(cell*100, "400G@85%-savings-%")
}

// BenchmarkAblationBudget re-runs Fig. 3 under the peak-power budget.
func BenchmarkAblationBudget(b *testing.B) {
	props := []float64{0, 0.5, 1}
	var speedup float64
	for i := 0; i < b.N; i++ {
		curves, err := core.Fig3(core.Baseline(), core.Table3Bandwidths(), props, core.PeakBudget)
		if err != nil {
			b.Fatal(err)
		}
		speedup = curves[2].Points[2].Speedup
	}
	b.ReportMetric(speedup*100, "400G@100%-speedup-%")
}

// BenchmarkGating evaluates the §4.1 power-gating mode ladder on a
// half-used switch.
func BenchmarkGating(b *testing.B) {
	ports := make([]int, 64)
	for i := range ports {
		ports[i] = i
	}
	d := powergate.Deployment{UsedPorts: ports, FIBFraction: 0.25, WakeBudget: 1}
	var savings float64
	for i := 0; i < b.N; i++ {
		reports, err := powergate.Evaluate(asic.DefaultConfig(), d)
		if err != nil {
			b.Fatal(err)
		}
		best, err := powergate.Best(reports)
		if err != nil {
			b.Fatal(err)
		}
		savings = best.Savings
	}
	b.ReportMetric(savings*100, "PM3-savings-%")
}

// BenchmarkOCS tailors a k=16 fabric to a 32-host ring job (§4.2).
func BenchmarkOCS(b *testing.B) {
	f, err := ocs.ThreeTierFabric(16, 400*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = i
	}
	m, err := (traffic.Job{ID: 1, Hosts: ids, Period: 10, CommRatio: 0.1,
		Rate: 100 * units.Gbps, Pattern: traffic.Ring}).Matrix()
	if err != nil {
		b.Fatal(err)
	}
	var savings float64
	for i := 0; i < b.N; i++ {
		plan, err := ocs.Tailor(f, m)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := ocs.Compare(plan, ocs.DefaultCompareParams())
		if err != nil {
			b.Fatal(err)
		}
		savings = cmp.Savings
	}
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkRateAdapt runs the §4.3 per-pipeline reactive controller with
// SerDes gating over a periodic ML load.
func BenchmarkRateAdapt(b *testing.B) {
	cfg := asic.DefaultConfig()
	prof, err := traffic.MLPeriodic(0.2, 10, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	const n = 400
	times := make([]units.Seconds, n)
	utils := make([][]float64, cfg.Pipelines)
	for p := range utils {
		utils[p] = make([]float64, n)
	}
	for i := range times {
		times[i] = units.Seconds(i) * 0.5
		utils[0][i] = prof(times[i])
	}
	mk := func() rateadapt.Controller {
		c, err := rateadapt.NewReactive(1.1, 0.2, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := rateadapt.Simulate(cfg, times, utils, mk, rateadapt.Options{GateIdleSerDes: true})
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Savings
	}
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkParking runs the §4.4 scheduled parking policy over ML traffic.
func BenchmarkParking(b *testing.B) {
	cfg := parking.DefaultConfig()
	prof, err := traffic.MLPeriodic(0.2, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	const n = 800
	times := make([]units.Seconds, n)
	demand := make([]float64, n)
	for i := range times {
		times[i] = units.Seconds(i) * 0.05
		demand[i] = prof(times[i])
	}
	pol, err := parking.NewScheduled(2, 0.4, 0.1, cfg.MinActive, cfg.ASIC.Pipelines)
	if err != nil {
		b.Fatal(err)
	}
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := parking.Simulate(cfg, times, demand, pol)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Savings
	}
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkEEE runs the 802.3az baseline at 10% utilization.
func BenchmarkEEE(b *testing.B) {
	params := eee.DefaultParams(10*units.Gbps, 10*units.Watt)
	pkts, err := eee.PoissonPackets(1, 10*units.Gbps, 0.10, 12000, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	var savings float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eee.Simulate(params, pkts)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Savings
	}
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkScheduler compares concentrate vs. spread placement (§4.2).
func BenchmarkScheduler(b *testing.B) {
	f, err := ocs.ThreeTierFabric(16, 400*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	jobs := []schedule.JobReq{{ID: 1, Hosts: 64}, {ID: 2, Hosts: 32}, {ID: 3, Hosts: 16}}
	var off int
	for i := 0; i < b.N; i++ {
		s, err := schedule.Place(f, jobs, schedule.Concentrate)
		if err != nil {
			b.Fatal(err)
		}
		off = s.OffSwitches()
	}
	b.ReportMetric(float64(off), "switches-off")
}

// BenchmarkFabricSim runs the flow-level simulator on a k=8 fat tree with
// a full ring job — the substrate every §4 experiment builds on.
func BenchmarkFabricSim(b *testing.B) {
	top, err := fattree.BuildThreeTier(8, 100*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(3)
	if err != nil {
		b.Fatal(err)
	}
	s := netsim.New(top)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricSimCosimOff pins the disabled-co-simulation hot path:
// with Sim.Models explicitly nil, every per-flow latency and per-device
// energy must come from the in-process formulas with no extra
// allocations over BenchmarkFabricSim — the hook checks are plain nil
// comparisons, not wrapper construction.
func BenchmarkFabricSimCosimOff(b *testing.B) {
	top, err := fattree.BuildThreeTier(8, 100*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(3)
	if err != nil {
		b.Fatal(err)
	}
	s := netsim.New(top)
	s.Models = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(flows)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Energy(res, 0.1, netsim.Linear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunParallel is BenchmarkFabricSim's workload through the
// parallel interval fan-out at GOMAXPROCS workers.
func BenchmarkRunParallel(b *testing.B) {
	top, err := fattree.BuildThreeTier(8, 100*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(3)
	if err != nil {
		b.Fatal(err)
	}
	s := netsim.New(top)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunParallel(flows, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTopoPaths measures one zoo topology's deterministic path
// enumeration: every ordered pair among the first 16 hosts of a 48-host
// build, enumerated fresh each time (no simulator cache in front).
func benchTopoPaths(b *testing.B, name string) {
	top, _, err := topo.Build(name, topo.Spec{Hosts: 48, LinkSpeed: 100 * units.Gbps})
	if err != nil {
		b.Fatal(err)
	}
	hosts := top.Hosts()[:16]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				if _, err := top.Paths(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTopoPathsFattree enumerates on the native Clos path rules.
func BenchmarkTopoPathsFattree(b *testing.B) { benchTopoPaths(b, "fattree") }

// BenchmarkTopoPathsDragonfly enumerates through the installed BFS/DFS
// enumerator with detour slack on the group graph.
func BenchmarkTopoPathsDragonfly(b *testing.B) { benchTopoPaths(b, "dragonfly") }

// BenchmarkTopoPathsTorus3D enumerates on the highest-diameter zoo member.
func BenchmarkTopoPathsTorus3D(b *testing.B) { benchTopoPaths(b, "torus3d") }

// benchTopoSim runs the flow-level simulator on a 48-host zoo build with a
// full ring job — BenchmarkFabricSim's workload generalized across the zoo.
func benchTopoSim(b *testing.B, name string) {
	top, _, err := topo.Build(name, topo.Spec{Hosts: 48, LinkSpeed: 100 * units.Gbps})
	if err != nil {
		b.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(3)
	if err != nil {
		b.Fatal(err)
	}
	s := netsim.New(top)
	if _, err := s.Run(flows); err != nil { // warm the path cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopoSimFattree is the zoo fattree through the simulator.
func BenchmarkTopoSimFattree(b *testing.B) { benchTopoSim(b, "fattree") }

// BenchmarkTopoSimDragonfly is the dragonfly through the simulator.
func BenchmarkTopoSimDragonfly(b *testing.B) { benchTopoSim(b, "dragonfly") }

// BenchmarkTopoSimTorus3D is the 3D torus through the simulator.
func BenchmarkTopoSimTorus3D(b *testing.B) { benchTopoSim(b, "torus3d") }

// BenchmarkFaultSim reproduces one row of the faults scenario at its 4×
// failure rate: a k=4 three-tier fat tree running all-to-all ×32 under a
// generated fault trace, simulated fully powered and then with half the
// core gated (woken one switch per primary failure), both on one Sim. It
// is the shape of the fault-long workload: long horizons, many fault
// epochs, and flows that each overlap only one or two of them.
func BenchmarkFaultSim(b *testing.B) {
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
		Rate: 10 * units.Gbps, Pattern: traffic.AllToAll}
	const iters, mult = 32, 4
	flows, err := job.Flows(iters)
	if err != nil {
		b.Fatal(err)
	}
	var optical, core []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	for _, sw := range top.SwitchIDs() {
		if top.Nodes[sw].Kind == fattree.KindCore {
			core = append(core, sw)
		}
	}
	full, err := fault.Generate(fault.GenConfig{
		Horizon: iters * job.Period, Links: optical,
		Flaps: 6 * mult, MTTR: 0.3, PermanentFailures: mult,
		WakeStuckProb: 0.25, WakeStuckExtra: 0.5,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gated := full.Clone()
	gatedCount := len(core) / 2
	for _, sw := range core[:gatedCount] {
		gated.SwitchDown(0, sw)
	}
	woken := 0
	for _, e := range full.Events() {
		if e.Kind == fault.KindLinkDown && e.At > 0 && woken < gatedCount {
			gated.SwitchUp(e.At+0.2, core[woken])
			woken++
		}
	}
	var reroutes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := netsim.New(top)
		for _, tr := range []*fault.Trace{full, gated} {
			s.Faults = tr
			res, err := s.Run(flows)
			if err != nil {
				b.Fatal(err)
			}
			reroutes = res.Faults.Reroutes
		}
	}
	b.ReportMetric(float64(reroutes), "gated-reroutes")
}

// BenchmarkMaxMinDense measures the fairness solver on a contended
// instance through a reused dense Solver — the allocation-free path the
// simulator hot loop takes.
func BenchmarkMaxMinDense(b *testing.B) {
	const flows = 256
	demands := make([]float64, flows)
	paths := make([][]int, flows)
	caps := make([]float64, 64)
	for l := range caps {
		caps[l] = 100
	}
	for i := range demands {
		demands[i] = float64(10 + i%50)
		paths[i] = []int{i % 64, (i * 7) % 64, (i * 13) % 64}
	}
	var s netsim.Solver
	if _, err := s.Solve(demands, paths, caps); err != nil { // grow the buffers
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(demands, paths, caps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity evaluates the full assumption-perturbation grid.
func BenchmarkSensitivity(b *testing.B) {
	sweeps := map[core.Assumption][]float64{
		core.AssumeCommRatio:              {0.05, 0.10, 0.20},
		core.AssumeServerOverhead:         {50, 100, 200},
		core.AssumeSwitchPower:            {500, 750, 1000},
		core.AssumeComputeProportionality: {0.70, 0.85, 0.95},
		core.AssumeNetworkProportionality: {0.05, 0.10, 0.20},
	}
	var share float64
	for i := 0; i < b.N; i++ {
		for _, a := range core.Assumptions() {
			pts, err := core.Sensitivity(a, sweeps[a])
			if err != nil {
				b.Fatal(err)
			}
			share = pts[1].NetworkShare
		}
	}
	b.ReportMetric(share*100, "baseline-net-share-%")
}

// BenchmarkChiplet sweeps the §4.5 redesign ladder on ML traffic.
func BenchmarkChiplet(b *testing.B) {
	prof, err := traffic.MLPeriodic(0.1, 10, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	const n = 200
	times := make([]units.Seconds, n)
	loads := make([]float64, n)
	for i := range times {
		times[i] = units.Seconds(i) * 0.5
		loads[i] = prof(times[i])
	}
	designs := []chiplet.Design{chiplet.Today(), chiplet.Gateable(), chiplet.Chiplets(64)}
	var savings float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := chiplet.Sweep(designs, times, loads)
		if err != nil {
			b.Fatal(err)
		}
		savings = rows[2].SavingsVsToday
	}
	b.ReportMetric(savings*100, "64-chiplet-savings-%")
}

// BenchmarkRateLink runs the NSDI'08 rate-adaptation link sim at 25% load.
func BenchmarkRateLink(b *testing.B) {
	params := eee.DefaultRateParams(10*units.Gbps, 10*units.Watt)
	pkts, err := eee.PoissonPackets(1, 10*units.Gbps, 0.25, 12000, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	var savings float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eee.SimulateRate(params, pkts)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Savings
	}
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkBackbone simulates a day of §3.4 ISP link sleeping.
func BenchmarkBackbone(b *testing.B) {
	net, err := backbone.Ring(12, 400*units.Gbps, 40*units.Watt, 300*units.Watt, 0.05, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := net.SimulateDay(1800, 0.3, 0.85)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Savings
	}
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkScaling sweeps the cluster-size study.
func BenchmarkScaling(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		pts, err := core.ScalingStudy(core.Baseline(), core.DefaultScalingSizes())
		if err != nil {
			b.Fatal(err)
		}
		share = pts[len(pts)-1].NetworkShare
	}
	b.ReportMetric(share*100, "share-at-262k-%")
}

// BenchmarkOverlap evaluates the §3.4 overlap extension at 50%.
func BenchmarkOverlap(b *testing.B) {
	cfg := core.Baseline()
	cfg.Overlap = 0.5
	var eff float64
	for i := 0; i < b.N; i++ {
		cl, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eff = cl.NetworkEfficiency()
	}
	b.ReportMetric(eff*100, "net-efficiency-%")
}

// BenchmarkClusterConstruction measures the core model build itself.
func BenchmarkClusterConstruction(b *testing.B) {
	cfg := core.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheHit measures the query engine's hot serving path:
// the same normalized request answered from the sharded LRU cache.
func BenchmarkEngineCacheHit(b *testing.B) {
	e := engine.New(engine.Options{})
	ctx := context.Background()
	req := engine.Request{Op: engine.OpTable3}
	if _, _, err := e.Do(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cached, err := e.Do(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !cached {
			b.Fatal("expected cache hit")
		}
	}
}

// BenchmarkEngineCacheMiss measures the cold path: normalize, singleflight,
// worker pool, and one full whatif computation per distinct request.
func BenchmarkEngineCacheMiss(b *testing.B) {
	e := engine.New(engine.Options{CacheSize: 1 << 20})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cached, err := e.Do(ctx, engine.Request{Op: engine.OpWhatIf, GPUs: 1024 + i})
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			b.Fatal("unexpected cache hit")
		}
	}
}
