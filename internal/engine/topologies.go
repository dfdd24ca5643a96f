package engine

import (
	"context"
	"fmt"
	"math"

	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/report"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// topologiesRows runs the cross-topology power-proportionality comparison:
// every zoo generator sized to the same host count and link speed, each
// running the identical offered-load sweep (a low-load phase concentrated
// on a few hosts, a full-load all-to-all phase, and the full load again
// under a seeded fault trace). One row per topology reports the design's
// cost figures (switches, links, bisection), its delivered throughput and
// energy per bit at full load, the power proportionality the whole fabric
// achieves today (10%-proportional devices) and with perfectly gated
// devices, and its fault resilience (stall downtime, reroutes).
//
// The fabric-level proportionality is measured, not assumed: energy at the
// concentrated low load over energy at full load, normalized by the active
// host fraction. A topology whose idle switches the routing can drain
// scores near 1.0 when devices gate; one that keeps every switch busy even
// at low load (a torus) cannot exploit device gating at the fabric level.
func topologiesRows(req Request, models *netsim.Models) (*scenarioRows, error) {
	hosts := int(req.Params["hosts"])
	iters := int(req.Params["iters"])
	seed := uint64(req.Params["seed"])
	flaps := int(req.Params["flaps"])
	mttr := units.Seconds(req.Params["mttr"])
	perm := int(req.Params["perm"])
	lowload := req.Params["lowload"]
	level := req.Params["level"]
	speed, err := units.ParseBandwidth(req.Bandwidth)
	if err != nil {
		return nil, err
	}
	if hosts < 4 {
		return nil, fmt.Errorf("hosts %d must be at least 4", hosts)
	}
	if iters < 1 {
		return nil, fmt.Errorf("iters %d must be positive", iters)
	}
	if level <= 0 || level > 1 {
		return nil, fmt.Errorf("level %v outside (0,1]", level)
	}
	if lowload <= 0 || lowload >= 1 {
		return nil, fmt.Errorf("lowload %v outside (0,1)", lowload)
	}
	activeLow := int(math.Ceil(lowload * float64(hosts)))
	if activeLow < 2 {
		activeLow = 2
	}
	if activeLow >= hosts {
		return nil, fmt.Errorf("lowload %v leaves no idle hosts at %d hosts", lowload, hosts)
	}
	names := topo.Names()

	t := &Table{
		Title: fmt.Sprintf("topology zoo — %d hosts @ %v each, all-to-all ×%d iters, %s low-load phase, seed %d",
			hosts, speed, iters, report.Percent(lowload), seed),
		Headers: []string{"topology", "switches", "links", "bisection", "throughput",
			"mean xfer", "energy/bit", "prop (today)", "prop (gated)", "downtime", "reroutes"},
		Notes: []string{
			"prop = measured fabric proportionality: energy drop from full to concentrated",
			"low load over the active-host drop, with 10%-proportional devices (today)",
			"and perfectly gated ones (gated); energy/bit and throughput at full load;",
			"downtime and reroutes under the same seeded fault trace for every topology.",
		},
	}
	row := func(ctx context.Context, s *netsim.Sim, idx int) ([]string, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := names[idx]
		top, design, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: speed})
		if err != nil {
			return nil, err
		}
		s.Reset(top)
		s.Routing = netsim.ConcentrateRouting
		s.Models = models
		hs := top.Hosts()

		runPhase := func(active []int, tr *fault.Trace) (*netsim.Result, float64, float64, error) {
			job := traffic.Job{
				ID: 1, Hosts: active, Period: 1, CommRatio: 0.5,
				Rate:    units.Bandwidth(level * float64(speed) / float64(len(active)-1)),
				Pattern: traffic.AllToAll,
			}
			flows, err := job.Flows(iters)
			if err != nil {
				return nil, 0, 0, err
			}
			offered := 0.0
			for _, f := range flows {
				offered += float64(f.Demand) * float64(f.Duration())
			}
			s.Faults = tr
			res, err := s.Run(flows)
			if err != nil {
				return nil, 0, 0, err
			}
			delivered := 0.0
			for _, st := range res.Flows {
				delivered += st.DeliveredBits
			}
			return res, offered, delivered, nil
		}
		energyAt := func(res *netsim.Result, prop float64) (units.Energy, error) {
			rep, err := s.Energy(res, prop, netsim.TwoState)
			if err != nil {
				return 0, err
			}
			return rep.Total(), nil
		}
		// proportionality: fractional energy drop over fractional load drop.
		propOf := func(elow, ehigh units.Energy) float64 {
			loadDrop := 1 - float64(activeLow)/float64(hosts)
			if ehigh <= 0 || loadDrop <= 0 {
				return 0
			}
			p := (1 - float64(elow)/float64(ehigh)) / loadDrop
			return math.Min(1, math.Max(0, p))
		}

		resLow, _, _, err := runPhase(hs[:activeLow], nil)
		if err != nil {
			return nil, fmt.Errorf("%s (low): %w", name, err)
		}
		resHigh, offered, delivered, err := runPhase(hs, nil)
		if err != nil {
			return nil, fmt.Errorf("%s (high): %w", name, err)
		}

		// The identical seeded fault process stresses every topology: same
		// flap count, repair time, and permanent failures, drawn over each
		// design's own optical links.
		var optical []int
		for _, l := range top.Links {
			if l.Optical {
				optical = append(optical, l.ID)
			}
		}
		downtime, reroutes := units.Seconds(0), 0
		if len(optical) > 0 {
			trace, err := fault.Generate(fault.GenConfig{
				Horizon: units.Seconds(iters), Links: optical,
				Flaps: flaps, MTTR: mttr, PermanentFailures: perm,
				WakeStuckProb: 0.25, WakeStuckExtra: mttr,
			}, seed)
			if err != nil {
				return nil, fmt.Errorf("%s (faults): %w", name, err)
			}
			resFault, _, _, err := runPhase(hs, trace)
			if err != nil {
				return nil, fmt.Errorf("%s (faulted): %w", name, err)
			}
			if resFault.Faults != nil {
				downtime = resFault.Faults.StallSeconds
				reroutes = resFault.Faults.Reroutes
			}
		}

		lowToday, err := energyAt(resLow, 0.1)
		if err != nil {
			return nil, err
		}
		highToday, err := energyAt(resHigh, 0.1)
		if err != nil {
			return nil, err
		}
		lowGated, err := energyAt(resLow, 1.0)
		if err != nil {
			return nil, err
		}
		highGated, err := energyAt(resHigh, 1.0)
		if err != nil {
			return nil, err
		}
		tput := 0.0
		if offered > 0 {
			tput = delivered / offered
		}
		// Mean per-flow transfer latency at full load — the co-sim latency
		// model's output surfaces here (in-process formula when no model
		// is attached).
		meanXfer := 0.0
		for _, st := range resHigh.Flows {
			meanXfer += float64(st.TransferLatency)
		}
		meanXfer /= float64(len(resHigh.Flows))
		perBit := math.Inf(1)
		if delivered > 0 {
			perBit = float64(highToday) / delivered
		}
		return []string{
			name,
			fmt.Sprintf("%d", design.Switches),
			fmt.Sprintf("%d", design.Links),
			design.Bisection.String(),
			report.Percent(tput),
			fmt.Sprintf("%.3gs", meanXfer),
			fmt.Sprintf("%.2f nJ/b", perBit*1e9),
			report.Percent(propOf(lowToday, highToday)),
			report.Percent(propOf(lowGated, highGated)),
			fmt.Sprintf("%.3gs", float64(downtime)),
			fmt.Sprintf("%d", reroutes),
		}, nil
	}
	return &scenarioRows{table: t, n: len(names), row: row}, nil
}
