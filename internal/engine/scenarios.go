package engine

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/chiplet"
	"netpowerprop/internal/core"
	"netpowerprop/internal/eee"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/ocs"
	"netpowerprop/internal/parking"
	"netpowerprop/internal/powergate"
	"netpowerprop/internal/rateadapt"
	"netpowerprop/internal/report"
	"netpowerprop/internal/schedule"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// ParamKind is the kind of value a scenario parameter takes. Every value
// travels as a float64; the kind says which float64s are valid.
type ParamKind int

const (
	ParamFloat ParamKind = iota // any finite number
	ParamInt                    // a safe integer: |v| < 2^53, so v±1 are distinct float64s
	ParamBool                   // 0 (false) or 1 (true)
)

// check reports whether v, already known to be finite, is of kind k.
func (k ParamKind) check(v float64) error {
	switch {
	case k == ParamInt && (v != math.Trunc(v) || math.Abs(v) >= 1<<53):
		return fmt.Errorf("%v is not an integer within ±(2^53-1)", v)
	case k == ParamBool && v != 0 && v != 1:
		return fmt.Errorf("%v is not a bool (0 or 1)", v)
	}
	return nil
}

// Parse reads command-line text as a value of kind k, in the syntax of
// the flag package's flag of that kind, and checks it.
func (k ParamKind) Parse(s string) (float64, error) {
	var v float64
	var err error
	switch k {
	case ParamBool:
		var b bool
		if b, err = strconv.ParseBool(s); b {
			v = 1
		}
	case ParamInt:
		var n int64
		n, err = strconv.ParseInt(s, 0, 64)
		v = float64(n)
	default:
		v, err = strconv.ParseFloat(s, 64)
	}
	if err != nil {
		return 0, err
	}
	return v, k.check(v)
}

// Param declares one scenario parameter. The registry below is the only
// declaration: the engine defaults and checks requests against it, and
// cmd/netsim builds each scenario's flags from it.
type Param struct {
	Name    string
	Default float64
	Kind    ParamKind
	Help    string
}

// scenarioSpec describes one named §4 mechanism simulation: its
// parameters, an optional default bandwidth for scenarios parameterized
// by a link speed, and its planner. Tables carry the exact strings the
// CLI prints.
type scenarioSpec struct {
	params    []Param
	bandwidth string
	plan      func(norm Request, models *netsim.Models) (*RowPlan, error)
}

// ScenarioParams returns a registered scenario's parameters in
// declaration order and its default link speed ("" when it takes none).
// ok is false for an unknown scenario.
func ScenarioParams(name string) (params []Param, bandwidth string, ok bool) {
	spec, ok := scenarios[name]
	return append([]Param(nil), spec.params...), spec.bandwidth, ok
}

// scenarioRows is a row-structured scenario: the table frame (title,
// headers, static notes) plus n independent row computations. The row
// function must be safe to call concurrently and deterministically
// produce the same cells for the same (req, i) — that contract is what
// makes concurrent rows and journaled replay byte-identical. A row that
// simulates runs on sim, its worker slot's simulator, after resetting it
// to its topology, and must not keep sim past its return.
type scenarioRows struct {
	table *Table
	n     int
	row   func(ctx context.Context, sim *netsim.Sim, i int) ([]string, error)
}

// tableRows plans a scenario whose table rows are independent
// computations: one plan row per table row.
func tableRows(build func(req Request, models *netsim.Models) (*scenarioRows, error)) func(Request, *netsim.Models) (*RowPlan, error) {
	return func(norm Request, models *netsim.Models) (*RowPlan, error) {
		sr, err := build(norm, models)
		if err != nil {
			return nil, err
		}
		return planOf(norm, sr.n, sr.row, func(rows []*[]string) (*Result, error) {
			t := *sr.table
			t.Rows = present(rows)
			return &Result{Op: norm.Op, Request: norm, Table: &t}, nil
		}), nil
	}
}

// wholeTable plans a scenario whose table is computed in one piece as a
// single row.
func wholeTable(run func(req Request) (*Table, error)) func(Request, *netsim.Models) (*RowPlan, error) {
	return func(norm Request, _ *netsim.Models) (*RowPlan, error) {
		return wholeRow(norm, func(res *Result) error {
			t, err := run(norm)
			res.Table = t
			return err
		}), nil
	}
}

// scenarios is the registry behind OpScenario, /v1/scenarios/<name> and
// cmd/netsim's scenario flags.
var scenarios = map[string]scenarioSpec{
	"gating": {
		params: []Param{
			{"ports", 64, ParamInt, "ports in use (of 128)"},
			{"l3", 0, ParamBool, "deployment needs L3 routing"},
			{"fib", 0.25, ParamFloat, "fraction of FIB memory needed"},
			{"wake", 1.0, ParamFloat, "wake latency budget (s)"},
		},
		plan: wholeTable(runGating),
	},
	"rateadapt": {
		params: []Param{
			{"busy", 1, ParamInt, "pipelines carrying traffic (of 4)"},
			{"ratio", 0.2, ParamFloat, "communication ratio of the periodic load"},
			{"level", 0.8, ParamFloat, "utilization during bursts"},
			{"samples", 400, ParamInt, "trace samples"},
		},
		plan: tableRows(rateAdaptRows),
	},
	"parking": {
		params: []Param{
			{"ratio", 0.2, ParamFloat, "communication ratio"},
			{"level", 0.5, ParamFloat, "utilization during bursts"},
			{"period", 2, ParamFloat, "iteration period (s)"},
			{"samples", 800, ParamInt, "trace samples (50 ms each)"},
		},
		plan: tableRows(parkingRows),
	},
	"eee": {
		params:    linkParams,
		bandwidth: "10G",
		plan:      tableRows(eeeRows),
	},
	"ratelink": {
		params:    linkParams,
		bandwidth: "10G",
		plan:      tableRows(rateLinkRows),
	},
	"chiplet": {
		params: []Param{
			{"ratio", 0.1, ParamFloat, "communication ratio of the ML load"},
			{"level", 0.8, ParamFloat, "utilization during bursts"},
		},
		plan: wholeTable(runChiplet),
	},
	"scheduler": {
		params: []Param{{"radix", 8, ParamInt, "fabric switch radix k"}},
		plan:   wholeTable(runScheduler),
	},
	"summary": {
		params: []Param{{"ratio", 0.1, ParamFloat, "communication ratio"}},
		plan:   wholeTable(runSummary),
	},
	"faults": {
		params: []Param{
			{"radix", 4, ParamInt, "fat-tree radix k"},
			{"iters", 4, ParamInt, "training iterations to simulate"},
			{"seed", 1, ParamInt, "fault trace seed"},
			{"flaps", 6, ParamInt, "base transient link outages (scaled by the sweep)"},
			{"mttr", 0.3, ParamFloat, "mean link repair time (s)"},
			{"stuckprob", 0.25, ParamFloat, "probability a link wake misses its deadline"},
			{"stuckextra", 0.5, ParamFloat, "mean extra latency of a stuck wake (s)"},
			{"reconfig", 0.2, ParamFloat, "nominal OCS reconfiguration latency (s)"},
			{"slowprob", 0.25, ParamFloat, "probability a reconfiguration is slow"},
			{"failprob", 0.1, ParamFloat, "probability a reconfiguration attempt fails"},
		},
		plan: tableRows(faultsRows),
	},
	"topologies": {
		params: []Param{
			{"hosts", 24, ParamInt, "host count every topology is sized for"},
			{"iters", 2, ParamInt, "training iterations to simulate"},
			{"seed", 1, ParamInt, "fault trace seed"},
			{"flaps", 4, ParamInt, "transient link outages in the fault trace"},
			{"mttr", 0.3, ParamFloat, "mean link repair time (s)"},
			{"perm", 1, ParamInt, "permanent link failures in the fault trace"},
			{"lowload", 0.1, ParamFloat, "active host fraction of the low-load phase"},
			{"level", 0.9, ParamFloat, "per-host offered load during bursts"},
		},
		bandwidth: "100G",
		plan:      tableRows(topologiesRows),
	},
	"chaos": {
		params: []Param{
			{"panic", 0, ParamBool, "panic on row 0"},
			{"sleep", 0, ParamFloat, "sleep this long on row 0 (s)"},
			{"fail", 0, ParamBool, "fail row 0"},
			{"rows", 1, ParamInt, "table rows"},
			{"failrow", -1, ParamInt, "fail this row on every attempt (-1: none)"},
			{"panicrow", -1, ParamInt, "panic on this row on every attempt (-1: none)"},
		},
		plan: tableRows(chaosRows),
	},
}

// linkParams are the single-link Poisson scenarios' parameters (eee and
// ratelink).
var linkParams = []Param{
	{"active", 10, ParamFloat, "PHY full-rate power (W)"},
	{"horizon", 0.01, ParamFloat, "simulated span (s)"},
	{"seed", 1, ParamInt, "arrival seed"},
}

// mlTrace samples an ML periodic load profile every `step` seconds.
func mlTrace(ratio float64, period units.Seconds, level float64, n int, step units.Seconds) ([]units.Seconds, []float64, error) {
	prof, err := traffic.MLPeriodic(ratio, period, level)
	if err != nil {
		return nil, nil, err
	}
	times := make([]units.Seconds, n)
	demand := make([]float64, n)
	for i := range times {
		times[i] = units.Seconds(i) * step
		demand[i] = prof(times[i])
	}
	return times, demand, nil
}

func mkReactive() rateadapt.Controller {
	c, err := rateadapt.NewReactive(1.1, 0.2, 0.1)
	if err != nil {
		panic(err)
	}
	return c
}

func mkPredictive() rateadapt.Controller {
	c, err := rateadapt.NewPredictive(1.1, 0.2, 0.3)
	if err != nil {
		panic(err)
	}
	return c
}

// runGating evaluates the §4.1 power-gating modes for a deployment.
func runGating(req Request) (*Table, error) {
	usedPorts := int(req.Params["ports"])
	l3 := req.Params["l3"] != 0
	fib := req.Params["fib"]
	wake := req.Params["wake"]
	cfg := asic.DefaultConfig()
	if usedPorts < 0 || usedPorts > cfg.Ports {
		return nil, fmt.Errorf("ports %d outside [0,%d]", usedPorts, cfg.Ports)
	}
	ports := make([]int, usedPorts)
	for i := range ports {
		ports[i] = i
	}
	d := powergate.Deployment{
		UsedPorts:   ports,
		NeedsL3:     l3,
		FIBFraction: fib,
		WakeBudget:  units.Seconds(wake),
	}
	reports, err := powergate.Evaluate(cfg, d)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("§4.1 — power-gating modes (%d/%d ports, L3=%v, FIB %s, wake budget %vs)",
			usedPorts, cfg.Ports, l3, report.Percent(fib), wake),
		Headers: []string{"mode", "power", "savings", "wake", "allowed", "description"},
	}
	for _, r := range reports {
		t.AddRow(r.Mode.Name, r.Power.String(), report.Percent(r.Savings),
			fmt.Sprintf("%gs", float64(r.Mode.WakeLatency)),
			fmt.Sprintf("%v", r.Allowed), r.Mode.Description)
	}
	best, err := powergate.Best(reports)
	if err != nil {
		return nil, err
	}
	t.Notes = []string{fmt.Sprintf("governor picks %s: %v (%s saved)", best.Mode.Name, best.Power, report.Percent(best.Savings))}
	return t, nil
}

// rateAdaptRows compares the §4.3 rate-adaptation variants on a periodic
// ML load, one variant per row.
func rateAdaptRows(req Request, _ *netsim.Models) (*scenarioRows, error) {
	busy := int(req.Params["busy"])
	ratio := req.Params["ratio"]
	level := req.Params["level"]
	samples := int(req.Params["samples"])
	cfg := asic.DefaultConfig()
	if busy < 0 || busy > cfg.Pipelines {
		return nil, fmt.Errorf("busy %d outside [0,%d]", busy, cfg.Pipelines)
	}
	prof, err := traffic.MLPeriodic(ratio, 10, level)
	if err != nil {
		return nil, err
	}
	times := make([]units.Seconds, samples)
	utils := make([][]float64, cfg.Pipelines)
	for p := range utils {
		utils[p] = make([]float64, samples)
	}
	for i := range times {
		times[i] = units.Seconds(i) * 0.5
		for p := 0; p < busy; p++ {
			utils[p][i] = prof(times[i])
		}
	}
	type variant struct {
		name string
		mk   func() rateadapt.Controller
		opts rateadapt.Options
	}
	// Delay model: per-pipeline capacity is a quarter of the 51.2T chip.
	delay := rateadapt.Options{PipelineCapacity: 12.8 * units.Tbps, FrameBits: 12000}
	withDelay := func(o rateadapt.Options) rateadapt.Options {
		o.PipelineCapacity, o.FrameBits = delay.PipelineCapacity, delay.FrameBits
		return o
	}
	variants := []variant{
		{"static (today)", func() rateadapt.Controller { return rateadapt.Static{} }, withDelay(rateadapt.Options{})},
		{"global reactive", mkReactive, withDelay(rateadapt.Options{Global: true})},
		{"per-pipeline reactive", mkReactive, withDelay(rateadapt.Options{})},
		{"per-pipeline predictive", mkPredictive, withDelay(rateadapt.Options{})},
		{"per-pipeline reactive + SerDes gating", mkReactive, withDelay(rateadapt.Options{GateIdleSerDes: true})},
	}
	return &scenarioRows{
		table: &Table{
			Title: fmt.Sprintf("§4.3 — rate adaptation (%d/%d busy pipelines, %s duty cycle at %s load)",
				busy, cfg.Pipelines, report.Percent(ratio), report.Percent(level)),
			Headers: []string{"variant", "energy", "savings", "mean freq", "shortfall", "queue delay"},
		},
		n: len(variants),
		row: func(_ context.Context, _ *netsim.Sim, i int) ([]string, error) {
			v := variants[i]
			res, err := rateadapt.Simulate(cfg, times, utils, v.mk, v.opts)
			if err != nil {
				return nil, err
			}
			return []string{v.name, res.Energy.String(), report.Percent(res.Savings),
				fmt.Sprintf("%.2f", res.MeanFreq), fmt.Sprintf("%gs", float64(res.ShortfallTime)),
				fmt.Sprintf("%.1fns", float64(res.MeanQueueingDelay)*1e9)}, nil
		},
	}, nil
}

// parkingRows compares the §4.4 pipeline-parking policies, one per row.
// Policies are constructed fresh per row: a Policy carries mutable
// controller state, so sharing instances across retried rows would break
// replay determinism.
func parkingRows(req Request, _ *netsim.Models) (*scenarioRows, error) {
	ratio := req.Params["ratio"]
	level := req.Params["level"]
	period := req.Params["period"]
	samples := int(req.Params["samples"])
	cfg := parking.DefaultConfig()
	times, demand, err := mlTrace(ratio, units.Seconds(period), level, samples, 0.05)
	if err != nil {
		return nil, err
	}
	policies := []func() (parking.Policy, error){
		func() (parking.Policy, error) { return parking.AlwaysOn{Pipelines: cfg.ASIC.Pipelines}, nil },
		func() (parking.Policy, error) {
			return parking.NewReactive(cfg.ASIC.Pipelines, cfg.MinActive, 0.8, 0.5)
		},
		func() (parking.Policy, error) {
			return parking.NewScheduled(units.Seconds(period), units.Seconds(period*ratio), 0.1, cfg.MinActive, cfg.ASIC.Pipelines)
		},
	}
	return &scenarioRows{
		table: &Table{
			Title: fmt.Sprintf("§4.4 — pipeline parking behind a circuit switch (duty %s at %s load, wake %gs)",
				report.Percent(ratio), report.Percent(level), float64(cfg.WakeLatency)),
			Headers: []string{"policy", "energy", "savings", "mean active", "reconfigs", "max backlog", "max delay", "dropped"},
		},
		n: len(policies),
		row: func(_ context.Context, _ *netsim.Sim, i int) ([]string, error) {
			pol, err := policies[i]()
			if err != nil {
				return nil, err
			}
			res, err := parking.Simulate(cfg, times, demand, pol)
			if err != nil {
				return nil, err
			}
			return []string{pol.Name(), res.Energy.String(), report.Percent(res.Savings),
				fmt.Sprintf("%.2f", res.MeanActive),
				fmt.Sprintf("%d", res.Reconfigurations),
				fmt.Sprintf("%.0f b", res.MaxBacklogBits),
				fmt.Sprintf("%.2gs", float64(res.MaxDelay)),
				fmt.Sprintf("%.0f b", res.DroppedBits)}, nil
		},
	}, nil
}

// eeeUtilizations is the load sweep shared by the eee and ratelink
// scenarios.
var eeeUtilizations = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9}

// eeeRows simulates the 802.3az LPI baseline, one utilization per row.
// Each row draws its arrivals from a fresh rng seeded by the request seed
// (eee.PoissonPackets), so a retried or replayed row reproduces the
// identical packet sequence.
func eeeRows(req Request, _ *netsim.Models) (*scenarioRows, error) {
	cap, err := units.ParseBandwidth(req.Bandwidth)
	if err != nil {
		return nil, err
	}
	active := req.Params["active"]
	horizon := req.Params["horizon"]
	seed := int64(req.Params["seed"])
	params := eee.DefaultParams(cap, units.Power(active))
	return &scenarioRows{
		table: &Table{
			Title:   fmt.Sprintf("802.3az EEE baseline — %v link, Poisson traffic", cap),
			Headers: []string{"utilization", "savings", "mean delay", "max delay", "LPI share"},
		},
		n: len(eeeUtilizations),
		row: func(_ context.Context, _ *netsim.Sim, i int) ([]string, error) {
			util := eeeUtilizations[i]
			pkts, err := eee.PoissonPackets(seed, cap, util, 12000, units.Seconds(horizon))
			if err != nil {
				return nil, err
			}
			res, err := eee.Simulate(params, pkts)
			if err != nil {
				return nil, err
			}
			return []string{report.Percent(util), report.Percent(res.Savings),
				fmt.Sprintf("%.2gus", float64(res.MeanDelay)*1e6),
				fmt.Sprintf("%.2gus", float64(res.MaxDelay)*1e6),
				report.Percent(float64(res.LPITime) / float64(res.Horizon))}, nil
		},
	}, nil
}

// rateLinkRows compares NSDI'08 link sleeping against rate adaptation,
// one utilization per row.
func rateLinkRows(req Request, _ *netsim.Models) (*scenarioRows, error) {
	cap, err := units.ParseBandwidth(req.Bandwidth)
	if err != nil {
		return nil, err
	}
	active := req.Params["active"]
	horizon := req.Params["horizon"]
	seed := int64(req.Params["seed"])
	lpi := eee.DefaultParams(cap, units.Power(active))
	rate := eee.DefaultRateParams(cap, units.Power(active))
	return &scenarioRows{
		table: &Table{
			Title:   fmt.Sprintf("NSDI'08 sleeping vs. rate adaptation — %v link, Poisson traffic", cap),
			Headers: []string{"utilization", "sleep savings", "sleep delay", "rate savings", "rate delay", "mean speed"},
		},
		n: len(eeeUtilizations),
		row: func(_ context.Context, _ *netsim.Sim, i int) ([]string, error) {
			util := eeeUtilizations[i]
			pkts, err := eee.PoissonPackets(seed, cap, util, 12000, units.Seconds(horizon))
			if err != nil {
				return nil, err
			}
			sres, err := eee.Simulate(lpi, pkts)
			if err != nil {
				return nil, err
			}
			rres, err := eee.SimulateRate(rate, pkts)
			if err != nil {
				return nil, err
			}
			return []string{report.Percent(util),
				report.Percent(sres.Savings), fmt.Sprintf("%.2gus", float64(sres.MeanDelay)*1e6),
				report.Percent(rres.Savings), fmt.Sprintf("%.2gus", float64(rres.MeanDelay)*1e6),
				rres.MeanSpeed.String()}, nil
		},
	}, nil
}

// runChiplet sweeps the §4.5 ASIC redesign space on ML traffic.
func runChiplet(req Request) (*Table, error) {
	ratio := req.Params["ratio"]
	level := req.Params["level"]
	times, loads, err := mlTrace(ratio, 10, level, 400, 0.5)
	if err != nil {
		return nil, err
	}
	designs := []chiplet.Design{
		chiplet.Today(),
		chiplet.Gateable(),
		chiplet.Chiplets(4),
		chiplet.Chiplets(16),
		chiplet.Chiplets(64),
		chiplet.Chiplets(256),
	}
	rows, err := chiplet.Sweep(designs, times, loads)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("§4.5 — ASIC redesign space on ML traffic (%s duty at %s load)",
			report.Percent(ratio), report.Percent(level)),
		Headers: []string{"design", "max power", "proportionality", "energy", "savings vs today"},
	}
	for _, r := range rows {
		t.AddRow(r.Design.Name, r.MaxPower.String(), report.Percent(r.Proportionality),
			r.Energy.String(), report.Percent(r.SavingsVsToday))
	}
	return t, nil
}

// runScheduler compares spread vs. concentrate placement on a k-ary
// fabric (§4.2).
func runScheduler(req Request) (*Table, error) {
	radix := int(req.Params["radix"])
	f, err := ocs.ThreeTierFabric(radix, 400*units.Gbps)
	if err != nil {
		return nil, err
	}
	jobs := []schedule.JobReq{{ID: 1, Hosts: 8}, {ID: 2, Hosts: 6}, {ID: 3, Hosts: 2}}
	t := &Table{
		Title:   fmt.Sprintf("§4.2 — network-aware job scheduling (k=%d fabric, 3 jobs, 16 hosts)", radix),
		Headers: []string{"policy", "edges used", "pods used", "active switches", "energy (1h, off=sleep)", "energy (1h, off=idle)"},
	}
	for _, pol := range []schedule.Policy{schedule.Spread, schedule.Concentrate} {
		s, err := schedule.Place(f, jobs, pol)
		if err != nil {
			return nil, err
		}
		sleep, err := s.Energy(schedule.EnergyParams{Horizon: 3600, DutyCycle: 0.1, Proportionality: 0.1, OffSwitchesSleep: true})
		if err != nil {
			return nil, err
		}
		idle, err := s.Energy(schedule.EnergyParams{Horizon: 3600, DutyCycle: 0.1, Proportionality: 0.1})
		if err != nil {
			return nil, err
		}
		t.AddRow(pol.String(), fmt.Sprintf("%d", s.EdgesUsed), fmt.Sprintf("%d", s.PodsUsed),
			fmt.Sprintf("%d", s.ActiveSwitches()), sleep.String(), idle.String())
	}
	return t, nil
}

// runSummary closes the loop between §4 and §3: each mechanism's simulated
// switch-level savings are converted into an effective power
// proportionality (the p that a two-state switch on the same duty cycle
// would need to match the mechanism's energy), which the §3 cluster model
// then prices at baseline-cluster scale.
func runSummary(req Request) (*Table, error) {
	ratio := req.Params["ratio"]
	if ratio <= 0 || ratio >= 1 {
		return nil, fmt.Errorf("ratio %v outside (0,1)", ratio)
	}
	idleShare := 1 - ratio

	// ML load trace shared by the mechanism sims: the whole switch busy at
	// 80% during the communication window.
	times, demand, err := mlTrace(ratio, 10, 0.8, 400, 0.5)
	if err != nil {
		return nil, err
	}

	type mech struct {
		name    string
		savings float64
	}
	var mechs []mech

	// §4.3: per-pipeline rate adaptation + SerDes gating. All four
	// pipelines carry the load during bursts.
	cfg := asic.DefaultConfig()
	utils := make([][]float64, cfg.Pipelines)
	for p := range utils {
		utils[p] = demand
	}
	ra, err := rateadapt.Simulate(cfg, times, utils, mkReactive, rateadapt.Options{GateIdleSerDes: true})
	if err != nil {
		return nil, err
	}
	mechs = append(mechs, mech{"§4.3 rate adaptation + SerDes gating", ra.Savings})

	// §4.4: scheduled pipeline parking.
	pcfg := parking.DefaultConfig()
	sched, err := parking.NewScheduled(10, units.Seconds(10*ratio), 0.2, pcfg.MinActive, pcfg.ASIC.Pipelines)
	if err != nil {
		return nil, err
	}
	pk, err := parking.Simulate(pcfg, times, demand, sched)
	if err != nil {
		return nil, err
	}
	mechs = append(mechs, mech{"§4.4 scheduled pipeline parking", pk.Savings})

	// §4.5: 64-chiplet redesign with co-packaged optics.
	rows, err := chiplet.Sweep([]chiplet.Design{chiplet.Chiplets(64)}, times, demand)
	if err != nil {
		return nil, err
	}
	mechs = append(mechs, mech{"§4.5 64-chiplet redesign + CPO", rows[0].SavingsVsToday})

	t := &Table{
		Title: fmt.Sprintf("§4 -> §3 synthesis — switch-level savings priced at baseline-cluster scale (%s comm ratio)",
			report.Percent(ratio)),
		Headers: []string{"mechanism", "switch savings", "effective prop", "cluster savings", "$/year"},
	}
	cost := core.DefaultCostModel()
	for _, m := range mechs {
		// A two-state switch with proportionality p on this duty cycle
		// saves p*(idleShare) vs always-on; invert to get the effective p.
		pEff := m.savings / idleShare
		if pEff > 1 {
			pEff = 1
		}
		grid, err := core.ComputeSavingsGrid(core.Baseline(),
			[]units.Bandwidth{400 * units.Gbps}, []float64{pEff}, 0.10)
		if err != nil {
			return nil, err
		}
		cell := grid.Cell(0, 0)
		dollars, err := cost.Annualize(cell.SavedPower)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, report.Percent(m.savings), report.Percent(pEff),
			report.Percent(cell.Savings), report.Dollars(dollars.Total()))
	}
	t.Notes = []string{
		"note: cluster savings are negative when a mechanism's effective",
		"proportionality falls below today's 10% baseline; the conversion",
		"assumes the mechanism applies to switches, NICs, and transceivers alike.",
	}
	return t, nil
}
