package engine

import (
	"context"
	"fmt"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/report"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// faultRateMultipliers scales the base failure counts for the sweep rows.
var faultRateMultipliers = []int{1, 2, 4}

// faultGatingLevels is the fraction of core switches powered down in the
// gated fabric variant.
var faultGatingLevels = []float64{0.25, 0.5}

// faultsRows sweeps failure rate × gating level on a three-tier fat tree
// running an all-to-all job, comparing a fully-powered fabric against
// one with part of its core power-gated, under the same seeded failure
// trace. Gated fabrics wake a sleeping core switch in response to each
// primary failure, delayed by a sampled OCS reconfiguration (which can be
// slow or need retries) — the §4.2 robustness question: how much slowdown
// and recovery time does power gating add when the fabric degrades?
//
// Each grid cell is one row: a row regenerates its seeded trace and
// re-simulates the fully-powered fabric itself, so rows share no results
// and a single cell can be retried or replayed from a journal while
// producing exactly the bytes of a serial sweep. Rows share only the
// topology and flows planned here and, through their worker slot's warm
// simulator, its path cache for that topology.
func faultsRows(req Request, models *netsim.Models) (*scenarioRows, error) {
	radix := int(req.Params["radix"])
	iters := int(req.Params["iters"])
	seed := uint64(req.Params["seed"])
	flaps := int(req.Params["flaps"])
	mttr := units.Seconds(req.Params["mttr"])
	stuckProb := req.Params["stuckprob"]
	stuckExtra := units.Seconds(req.Params["stuckextra"])
	reconfig := fault.ReconfigModel{
		Base:       units.Seconds(req.Params["reconfig"]),
		SlowProb:   req.Params["slowprob"],
		SlowFactor: 4,
		FailProb:   req.Params["failprob"],
	}
	if req.Params["seed"] < 0 {
		// A negative float64 has no portable uint64 conversion.
		return nil, fmt.Errorf("seed %v must not be negative", req.Params["seed"])
	}
	if iters < 1 {
		return nil, fmt.Errorf("iters %d must be positive", iters)
	}
	if err := reconfig.Validate(); err != nil {
		return nil, err
	}
	top, err := fattree.BuildThreeTier(radix, 100*units.Gbps)
	if err != nil {
		return nil, err
	}
	// All-to-all keeps the core bisection loaded, so gating part of the
	// core is visible in the slowdown (a ring barely touches the core).
	job := traffic.Job{
		ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
		Rate: 10 * units.Gbps, Pattern: traffic.AllToAll,
	}
	flows, err := job.Flows(iters)
	if err != nil {
		return nil, err
	}
	horizon := units.Seconds(iters) * job.Period
	idealBits := 0.0
	for _, f := range flows {
		idealBits += float64(f.Demand) * float64(f.Duration())
	}
	var optical []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	var core []int
	for _, sw := range top.SwitchIDs() {
		if top.Nodes[sw].Kind == fattree.KindCore {
			core = append(core, sw)
		}
	}

	type outcome struct {
		slowdown float64
		recovery units.Seconds
		rep      *netsim.FaultReport
	}
	// simulate runs flows on s under trace tr. A row runs its full and
	// gated fabrics on its slot's Sim, so each run reuses the path cache
	// and scratch of the runs before it; cached paths are revalidated
	// against each run's faults, so the result is the same as on a fresh
	// Sim.
	simulate := func(s *netsim.Sim, tr *fault.Trace) (outcome, error) {
		s.Faults = tr
		res, err := s.Run(flows)
		if err != nil {
			return outcome{}, err
		}
		delivered := 0.0
		for _, st := range res.Flows {
			delivered += st.DeliveredBits
		}
		out := outcome{rep: res.Faults}
		if delivered > 0 {
			out.slowdown = idealBits / delivered
		}
		if out.rep != nil && out.rep.StalledFlows > 0 {
			out.recovery = out.rep.StallSeconds / units.Seconds(out.rep.StalledFlows)
		}
		return out, nil
	}

	t := &Table{
		Title: fmt.Sprintf("fault sweep — k=%d fat tree, all-to-all ×%d, seed %d (slowdown = offered/delivered bits)",
			radix, iters, seed),
		Headers: []string{"failure rate", "gating", "slowdown (full)", "slowdown (gated)",
			"recovery (full)", "recovery (gated)", "reroutes", "missed wakes"},
		Notes: []string{
			"full and gated fabrics see the identical seeded failure trace;",
			"gated fabrics start with part of the core asleep and wake one core",
			"switch per primary failure after a sampled OCS reconfiguration delay.",
		},
	}
	row := func(ctx context.Context, s *netsim.Sim, idx int) ([]string, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mult := faultRateMultipliers[idx/len(faultGatingLevels)]
		level := faultGatingLevels[idx%len(faultGatingLevels)]
		cfg := fault.GenConfig{
			Horizon: horizon, Links: optical,
			Flaps: flaps * mult, MTTR: mttr,
			PermanentFailures: mult,
			WakeStuckProb:     stuckProb, WakeStuckExtra: stuckExtra,
		}
		base, err := fault.Generate(cfg, seed)
		if err != nil {
			return nil, err
		}
		s.Reset(top)
		s.Models = models
		full, err := simulate(s, base)
		if err != nil {
			return nil, err
		}
		// Primary failures drive the gated fabric's wake-ups, in trace order.
		var failures []units.Seconds
		for _, e := range base.Events() {
			if e.Kind == fault.KindLinkDown && e.At > 0 {
				failures = append(failures, e.At)
			}
		}
		gatedCount := int(level * float64(len(core)))
		if gatedCount < 1 {
			gatedCount = 1
		}
		gated := base.Clone()
		rng := fault.NewRand(seed ^ uint64(mult))
		for i := 0; i < gatedCount; i++ {
			gated.SwitchDown(0, core[i])
		}
		// Each primary failure wakes the next sleeping core switch after
		// a sampled reconfiguration delay.
		for i, at := range failures {
			if i >= gatedCount {
				break
			}
			gated.SwitchUp(at+reconfig.Sample(rng).Delay, core[i])
		}
		g, err := simulate(s, gated)
		if err != nil {
			return nil, err
		}
		reroutes, missed := 0, 0
		if g.rep != nil {
			reroutes, missed = g.rep.Reroutes, g.rep.MissedWakes
		}
		return []string{
			fmt.Sprintf("%dx", mult),
			report.Percent(level),
			fmt.Sprintf("%.3f", full.slowdown),
			fmt.Sprintf("%.3f", g.slowdown),
			fmt.Sprintf("%.3gs", float64(full.recovery)),
			fmt.Sprintf("%.3gs", float64(g.recovery)),
			fmt.Sprintf("%d", reroutes),
			fmt.Sprintf("%d", missed),
		}, nil
	}
	return &scenarioRows{
		table: t,
		n:     len(faultRateMultipliers) * len(faultGatingLevels),
		row:   row,
	}, nil
}
