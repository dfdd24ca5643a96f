// Package netsim is a flow-level network simulator on explicit fat-tree
// topologies: flows pick ECMP paths, link rates follow demand-bounded
// max-min fairness, and the simulator emits per-link and per-switch
// utilization traces that the §4 mechanism models (EEE, rate adaptation,
// pipeline parking, OCS) consume, plus baseline energy accounting.
package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"netpowerprop/internal/device"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/power"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// Routing selects how flows pick among their ECMP paths.
type Routing int

const (
	// HashECMP spreads flows by 5-tuple hash — today's load balancing.
	HashECMP Routing = iota
	// ConcentrateRouting greedily picks the path that touches the fewest
	// switches not already carrying traffic, so unused switches can sleep
	// (§4.2's "concentrate the network traffic on as few devices as
	// possible" applied at the routing layer). Deterministic: flows are
	// routed in input order.
	ConcentrateRouting
)

// String names the routing mode.
func (r Routing) String() string {
	switch r {
	case HashECMP:
		return "ecmp"
	case ConcentrateRouting:
		return "concentrate"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Sim runs flow-level simulations on an explicit fat-tree topology.
type Sim struct {
	Top *fattree.Topology
	// ECMPSeed perturbs deterministic path selection, so repeated runs can
	// explore different ECMP placements reproducibly.
	ECMPSeed uint64
	// Routing selects the path-selection policy (default HashECMP).
	Routing Routing
	// Capacity overrides per-link capacity; absent links default to their
	// topology speed. Used by parking/OCS studies to disable links (0).
	Capacity map[int]units.Bandwidth
	// Faults, when non-nil and non-empty, injects a deterministic link and
	// switch fault timeline into the run: flows reroute around dead links
	// at each fault epoch, flows with no surviving path stall (and
	// accumulate downtime), and the fairness solver sees dead links at
	// zero capacity. A nil or empty trace reproduces the fault-free
	// behavior exactly.
	Faults *fault.Trace
	// Models, when non-nil, delegates per-transfer latency and per-device
	// power to external co-simulation hooks (see Models). Nil keeps the
	// in-process formulas and adds nothing to the hot path.
	Models *Models

	// usedSwitches tracks switches already chosen by ConcentrateRouting
	// within one Run.
	usedSwitches map[int]bool

	// pathCache memoizes the ECMP path enumeration (and the switches each
	// path visits) per (src,dst) pair: the enumeration depends only on the
	// topology, never on seed, routing mode, or capacity overrides, so it
	// survives across Run calls. Fault-filtered views of each entry are
	// cached on the pathSet itself and invalidated per (run, epoch).
	pathCache map[[2]int]*pathSet

	// runGen counts runs; it stamps the per-pathSet alive caches so a new
	// run (possibly with a different fault trace) never reuses a stale
	// filtered path list.
	runGen uint64

	// Per-run arenas and the serial solve state, reused across runs.
	scratch runScratch
}

// pathSet is one (src,dst) pair's cached ECMP choices.
type pathSet struct {
	paths    [][]int
	switches [][]int // switches visited by paths[i], in path order

	// alive caches the indices of paths surviving the current fault
	// epoch's dead-link set. Stamped with (run generation, epoch): a link
	// failing or recovering starts a new epoch, which invalidates the
	// entry on first use.
	alive      []int
	aliveRun   uint64
	aliveEpoch int
}

// runScratch is one Sim's per-run arenas, reused across Run calls.
// Nothing in a Result aliases it.
type runScratch struct {
	solve     solveScratch // the serial path's solve state
	states    []flowState
	routes    []route // every flow's epoch window, back to back
	epochOff  []int   // per-epoch bucket bounds into buckets
	buckets   []int   // flow indices per epoch, in input order
	times     []units.Seconds
	byStart   []int
	intervals []interval
	activeIdx []int
	cur       []int
	epochOf   []int
	rates     []float64
}

// solveScratch is the per-worker solve state.
type solveScratch struct {
	solver  Solver
	demands []float64
	paths   [][]int
	// slots maps each solver row back to its position in the interval's
	// active-flow snapshot; stalled flows are excluded from the solve.
	slots []int
}

// New returns a simulator over a topology.
func New(top *fattree.Topology) *Sim {
	return &Sim{Top: top}
}

// FlowStat reports one flow's outcome.
type FlowStat struct {
	Flow traffic.Flow
	// Path is the chosen link-ID sequence (at the flow's start epoch; a
	// faulted run may reroute the flow in later epochs).
	Path []int
	// DeliveredBits integrates the achieved rate over the flow lifetime.
	DeliveredBits float64
	// MeanRate is DeliveredBits / lifetime.
	MeanRate units.Bandwidth
	// Downtime is the time the flow spent stalled with every ECMP path
	// dead. Always zero without fault injection.
	Downtime units.Seconds
	// TransferLatency models the flow's completion latency: per-hop
	// forwarding delay plus serialization of the delivered bits at the
	// start-epoch path's bottleneck capacity (TransferLatency), or
	// whatever an attached co-sim latency model returns for the same
	// request.
	TransferLatency units.Seconds
}

// FaultReport summarizes a faulted run.
type FaultReport struct {
	// Events counts trace events within the horizon; Epochs counts the
	// constant-dead-set spans the horizon split into.
	Events int
	Epochs int
	// MissedWakes counts links that came up late ("stuck asleep").
	MissedWakes int
	// StallSeconds sums downtime across flows; StalledFlows counts flows
	// with any downtime.
	StallSeconds units.Seconds
	StalledFlows int
	// Reroutes counts flow-epochs routed while at least one of the pair's
	// ECMP paths was dead (the flow had to steer around a failure).
	Reroutes int
}

// Result is a completed simulation: utilization traces per link and per
// switch, plus flow outcomes. Traces cover [0, Horizon].
type Result struct {
	Horizon     units.Seconds
	LinkTrace   map[int]Trace
	SwitchTrace map[int]Trace
	Flows       []FlowStat
	// Faults reports fault impact; nil when the run had no fault trace.
	Faults *FaultReport
}

// pathsFor returns the cached path set for a pair, enumerating on first use.
func (s *Sim) pathsFor(src, dst int) (*pathSet, error) {
	key := [2]int{src, dst}
	if ps, ok := s.pathCache[key]; ok {
		return ps, nil
	}
	paths, err := s.Top.Paths(src, dst)
	if err != nil {
		return nil, err
	}
	ps := &pathSet{paths: paths, switches: make([][]int, len(paths))}
	for i, p := range paths {
		ps.switches[i] = s.switchesOn(p, src)
	}
	if s.pathCache == nil {
		s.pathCache = make(map[[2]int]*pathSet)
	}
	s.pathCache[key] = ps
	return ps, nil
}

// aliveFor returns the indices of ps.paths that avoid every dead link,
// refreshing the pathSet's cached filter when it is stale for this
// (run, epoch) — the invalidation step after a link fails or recovers.
func (s *Sim) aliveFor(ps *pathSet, epoch int, dead []bool) []int {
	if ps.aliveRun == s.runGen && ps.aliveEpoch == epoch {
		return ps.alive
	}
	ps.alive = ps.alive[:0]
	for i, p := range ps.paths {
		ok := true
		if dead != nil {
			for _, l := range p {
				if dead[l] {
					ok = false
					break
				}
			}
		}
		if ok {
			ps.alive = append(ps.alive, i)
		}
	}
	ps.aliveRun, ps.aliveEpoch = s.runGen, epoch
	return ps.alive
}

// cleanTimeline is the single fault-free epoch a run without faults uses.
var cleanTimeline = &fault.Timeline{Starts: []units.Seconds{0}, Dead: [][]bool{nil}, DeadCount: []int{0}}

// route is one flow's routing decision within one fault epoch: an index
// into the flow's pathSet. It holds no pointers, so the route arena costs
// the garbage collector nothing to scan.
type route struct {
	path int32 // index into pathSet.paths and pathSet.switches
	// stalled marks an epoch where every ECMP path crossed a dead link.
	stalled bool
	// rerouted marks an epoch where the flow routed while at least one of
	// its ECMP paths was dead.
	rerouted bool
}

// routeFor picks one of ps's paths per the routing policy, restricted to
// paths avoiding the epoch's dead links. With no dead links the choice is
// identical to the fault-free policy.
func (s *Sim) routeFor(f traffic.Flow, ps *pathSet, epoch int, dead []bool) route {
	alive := s.aliveFor(ps, epoch, dead)
	if len(alive) == 0 {
		return route{stalled: true}
	}
	rerouted := len(alive) < len(ps.paths)
	if s.Routing == ConcentrateRouting {
		best, bestNew := alive[0], len(s.Top.Nodes)+1
		for _, i := range alive {
			newSwitches := 0
			for _, sw := range ps.switches[i] {
				if !s.usedSwitches[sw] {
					newSwitches++
				}
			}
			if newSwitches < bestNew {
				best, bestNew = i, newSwitches
			}
		}
		for _, sw := range ps.switches[best] {
			s.usedSwitches[sw] = true
		}
		return route{path: int32(best), rerouted: rerouted}
	}
	// Inline FNV-1a over (src, dst, seed) in little-endian order — the
	// same bytes the hash.Hash64 version fed, without its allocation. The
	// hash picks among surviving paths, so the fault-free choice (all
	// paths alive) is unchanged.
	h := uint64(14695981039346656037)
	for _, v := range [3]uint64{uint64(f.Src), uint64(f.Dst), s.ECMPSeed} {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	i := alive[h%uint64(len(alive))]
	return route{path: int32(i), rerouted: rerouted}
}

// capacityOf resolves a link's effective capacity.
func (s *Sim) capacityOf(l fattree.Link) units.Bandwidth {
	if s.Capacity != nil {
		if c, ok := s.Capacity[l.ID]; ok {
			return c
		}
	}
	return l.Speed
}

// flowState is one flow's per-epoch routing decisions and running account.
type flowState struct {
	spec traffic.Flow
	// e0 and e1 are the first and last fault epochs the flow's window
	// overlaps; routes[e-e0] is the decision for epoch e, so routes[0] is
	// the start epoch's. Fault-free runs have one epoch.
	e0, e1 int
	// ps is the flow's cached ECMP path set, resolved on its first routed
	// epoch; every route indexes into it.
	ps        *pathSet
	routes    []route
	delivered float64
	downtime  units.Seconds
}

// interval is one constant-rate span of the sweep: the flows active during
// [t0,t1) live at activeIdx[off:off+n].
type interval struct {
	t0, t1 units.Seconds
	off, n int
}

// Run simulates the flows and returns utilization traces. The horizon is
// the latest flow end time (0 horizon is an error: nothing to simulate).
func (s *Sim) Run(flows []traffic.Flow) (*Result, error) {
	return s.run(flows, 1)
}

// RunParallel is Run with the per-interval fairness solves fanned across a
// worker pool (workers <= 0 selects GOMAXPROCS). Interval solves are
// independent; delivered bits, rate sums, and traces are still accumulated
// serially in time order, so the output is byte-identical to Run.
func (s *Sim) RunParallel(flows []traffic.Flow, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return s.run(flows, workers)
}

func (s *Sim) run(flows []traffic.Flow, workers int) (*Result, error) {
	if s.Top == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("netsim: no flows")
	}
	if s.usedSwitches == nil {
		s.usedSwitches = make(map[int]bool)
	}
	clear(s.usedSwitches)
	s.runGen++
	sc := &s.scratch
	var horizon units.Seconds
	for i, f := range flows {
		if f.End <= f.Start {
			return nil, fmt.Errorf("netsim: flow %d empty window [%v,%v]", i, f.Start, f.End)
		}
		if f.Demand <= 0 {
			return nil, fmt.Errorf("netsim: flow %d non-positive demand %v", i, f.Demand)
		}
		if f.End <= 0 {
			// It would overlap no epoch and so never be routed.
			return nil, fmt.Errorf("netsim: flow %d ends at %v, before time 0", i, f.End)
		}
		if f.End > horizon {
			horizon = f.End
		}
	}

	// Compile the fault trace into epochs of constant dead-link sets. No
	// faults leaves the single clean epoch spanning the whole horizon, so
	// the fault-free path is untouched.
	tl := cleanTimeline
	if s.Faults != nil && s.Faults.Len() > 0 {
		var err error
		tl, err = fault.Compile(s.Faults, horizon, len(s.Top.Links), s.Top.LinksOf)
		if err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
	}
	numEpochs := tl.NumEpochs()

	// Each flow keeps routes only for the epochs its window overlaps,
	// [e0, e1], carved from one arena sized to the total overlap. A
	// counting sort buckets flow indices per epoch in input order:
	// epochOff[e+1] first counts epoch e's flows, the prefix sum turns
	// epochOff[e] into bucket e's start, and the fill advances it to the
	// bucket's end.
	states := resize(sc.states, len(flows))
	sc.states = states
	epochOff := resize(sc.epochOff, numEpochs+1)
	sc.epochOff = epochOff
	overlap := 0
	for i, f := range flows {
		e0, e1 := tl.Span(f.Start, f.End)
		states[i] = flowState{spec: f, e0: e0, e1: e1}
		for e := e0; e <= e1; e++ {
			epochOff[e+1]++
		}
		overlap += e1 - e0 + 1
	}
	for e := 1; e <= numEpochs; e++ {
		epochOff[e] += epochOff[e-1]
	}
	routeArena := resize(sc.routes, overlap)
	sc.routes = routeArena
	buckets := resize(sc.buckets, overlap)
	sc.buckets = buckets
	off := 0
	for i := range states {
		st := &states[i]
		n := st.e1 - st.e0 + 1
		st.routes = routeArena[off : off+n : off+n]
		off += n
		for e := st.e0; e <= st.e1; e++ {
			buckets[epochOff[e]] = i
			epochOff[e]++
		}
	}

	// Route every flow for every epoch overlapping its window. Epochs run
	// outer and each bucket's flows inner in input order, so
	// ConcentrateRouting stays deterministic and each pathSet's alive
	// filter is computed once per epoch. With one epoch this is exactly the
	// fault-free routing pass.
	reroutes := 0
	lo := 0
	for e := 0; e < numEpochs; e++ {
		var dead []bool
		if tl.DeadCount[e] > 0 {
			dead = tl.Dead[e]
		}
		for _, i := range buckets[lo:epochOff[e]] {
			st := &states[i]
			if st.ps == nil {
				ps, err := s.pathsFor(st.spec.Src, st.spec.Dst)
				if err != nil {
					return nil, fmt.Errorf("netsim: flow %d: %w", i, err)
				}
				st.ps = ps
			}
			rt := s.routeFor(st.spec, st.ps, e, dead)
			if rt.rerouted && !rt.stalled {
				reroutes++
			}
			st.routes[e-st.e0] = rt
		}
		lo = epochOff[e]
	}

	// Event times: every flow boundary and epoch start plus 0 and horizon,
	// sorted unique, so each interval lies within exactly one epoch.
	times := slices.Grow(sc.times[:0], 2*len(states)+numEpochs+1)
	times = append(times, 0, horizon)
	for i := range states {
		times = append(times, states[i].spec.Start, states[i].spec.End)
	}
	times = append(times, tl.Starts[1:]...)
	slices.Sort(times)
	times = slices.Compact(times)
	sc.times = times

	// Sweep the sorted start/end events once to snapshot each interval's
	// active flows, replacing the O(intervals × flows) rescan. Flow order
	// within an interval is (start, input index) — deterministic.
	byStart := resize(sc.byStart, len(states))
	sc.byStart = byStart
	for i := range byStart {
		byStart[i] = i
	}
	slices.SortStableFunc(byStart, func(a, b int) int {
		sa, sb := states[a].spec.Start, states[b].spec.Start
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	})
	intervals := slices.Grow(sc.intervals[:0], len(times)-1)
	activeIdx := sc.activeIdx[:0] // arena: every interval's active-flow snapshot
	cur := slices.Grow(sc.cur[:0], len(states))
	next := 0
	for ti := 0; ti+1 < len(times); ti++ {
		t0, t1 := times[ti], times[ti+1]
		for next < len(byStart) && states[byStart[next]].spec.Start <= t0 {
			cur = append(cur, byStart[next])
			next++
		}
		k := 0
		for _, fi := range cur {
			if states[fi].spec.End > t0 {
				cur[k] = fi
				k++
			}
		}
		cur = cur[:k]
		intervals = append(intervals, interval{t0: t0, t1: t1, off: len(activeIdx), n: len(cur)})
		activeIdx = append(activeIdx, cur...)
	}
	sc.intervals, sc.activeIdx, sc.cur = intervals, activeIdx, cur

	// Epoch starts are event times, so each interval sits inside exactly
	// one epoch; a single forward walk labels them all.
	epochOf := resize(sc.epochOf, len(intervals))
	sc.epochOf = epochOf
	ep := 0
	for k := range intervals {
		for ep+1 < numEpochs && tl.Starts[ep+1] <= intervals[k].t0 {
			ep++
		}
		epochOf[k] = ep
	}

	caps := make([]float64, len(s.Top.Links))
	for _, l := range s.Top.Links {
		caps[l.ID] = float64(s.capacityOf(l))
	}
	// Per-epoch capacities: dead links drop to zero so the max-min solver
	// cannot place traffic on them. Clean epochs share the base slice.
	epochCaps := make([][]float64, numEpochs)
	for e := range epochCaps {
		if tl.DeadCount[e] == 0 {
			epochCaps[e] = caps
			continue
		}
		ec := make([]float64, len(caps))
		copy(ec, caps)
		for l, d := range tl.Dead[e] {
			if d {
				ec[l] = 0
			}
		}
		epochCaps[e] = ec
	}

	// Solve every interval's fairness problem. rateArena mirrors activeIdx:
	// the rate of activeIdx[i]'s flow during its interval lands in
	// rateArena[i], so workers write disjoint ranges. Stalled flows are
	// excluded from the solve and keep the arena's zero rate.
	rateArena := resize(sc.rates, len(activeIdx))
	sc.rates = rateArena
	solve := func(ss *solveScratch, k int) error {
		iv := intervals[k]
		if iv.n == 0 {
			return nil
		}
		epoch := epochOf[k]
		idxs := activeIdx[iv.off : iv.off+iv.n]
		if cap(ss.demands) < iv.n {
			ss.demands = make([]float64, 0, iv.n)
			ss.paths = make([][]int, 0, iv.n)
			ss.slots = make([]int, 0, iv.n)
		}
		ss.demands = ss.demands[:0]
		ss.paths = ss.paths[:0]
		ss.slots = ss.slots[:0]
		for j, fi := range idxs {
			st := &states[fi]
			rt := st.routes[epoch-st.e0]
			if rt.stalled {
				continue
			}
			ss.demands = append(ss.demands, float64(st.spec.Demand))
			ss.paths = append(ss.paths, st.ps.paths[rt.path])
			ss.slots = append(ss.slots, j)
		}
		if len(ss.demands) == 0 {
			return nil
		}
		rates, err := ss.solver.Solve(ss.demands, ss.paths, epochCaps[epoch])
		if err != nil {
			return err
		}
		for r, j := range ss.slots {
			rateArena[iv.off+j] = rates[r]
		}
		return nil
	}
	if workers <= 1 || len(intervals) <= 1 {
		for k := range intervals {
			if err := solve(&sc.solve, k); err != nil {
				return nil, err
			}
		}
	} else {
		if workers > len(intervals) {
			workers = len(intervals)
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ss solveScratch
				for k := w; k < len(intervals); k += workers {
					if err := solve(&ss, k); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Accumulate delivered bits, per-link and per-switch rate sums, and
	// traces serially in time order: the summation order is identical for
	// every worker count, keeping serial and parallel output byte-identical.
	res := &Result{
		Horizon:     horizon,
		LinkTrace:   make(map[int]Trace, len(s.Top.Links)),
		SwitchTrace: make(map[int]Trace),
	}
	switchIDs := s.Top.SwitchIDs()
	for _, l := range s.Top.Links {
		res.LinkTrace[l.ID] = nil
	}
	for _, sw := range switchIDs {
		res.SwitchTrace[sw] = nil
	}
	linkRate := make([]float64, len(s.Top.Links))
	switchRate := make([]float64, len(s.Top.Nodes))
	for k, iv := range intervals {
		for i := range linkRate {
			linkRate[i] = 0
		}
		for i := range switchRate {
			switchRate[i] = 0
		}
		epoch := epochOf[k]
		dt := float64(iv.t1 - iv.t0)
		for j := 0; j < iv.n; j++ {
			fi := activeIdx[iv.off+j]
			st := &states[fi]
			rt := st.routes[epoch-st.e0]
			if rt.stalled {
				st.downtime += iv.t1 - iv.t0
				continue
			}
			rate := rateArena[iv.off+j]
			st.delivered += rate * dt
			for _, l := range st.ps.paths[rt.path] {
				linkRate[l] += rate
			}
			for _, sw := range st.ps.switches[rt.path] {
				switchRate[sw] += rate
			}
		}
		for _, l := range s.Top.Links {
			res.LinkTrace[l.ID] = res.LinkTrace[l.ID].append(iv.t0, iv.t1, units.Bandwidth(linkRate[l.ID]))
		}
		for _, sw := range switchIDs {
			res.SwitchTrace[sw] = res.SwitchTrace[sw].append(iv.t0, iv.t1, units.Bandwidth(switchRate[sw]))
		}
	}

	res.Flows = make([]FlowStat, len(states))
	for i := range states {
		st := &states[i]
		life := float64(st.spec.End - st.spec.Start)
		// routes[0] is the start epoch's decision; its path points into the
		// pathSet cache, never into the scratch arena.
		var path []int
		if rt := st.routes[0]; !rt.stalled {
			path = st.ps.paths[rt.path]
		}
		// Bottleneck over base capacities of the start-epoch path; a
		// disabled (zero-capacity) link zeroes the bottleneck and
		// TransferLatency charges hop delay only.
		var bottleneck float64
		for pi, l := range path {
			if c := caps[l]; pi == 0 || c < bottleneck {
				bottleneck = c
			}
		}
		lat := TransferLatency(len(path), st.delivered, bottleneck)
		if s.Models != nil && s.Models.Latency != nil {
			req := LatencyRequest{Src: st.spec.Src, Dst: st.spec.Dst, Hops: len(path), Bits: st.delivered, BottleneckBps: bottleneck}
			if v, err := s.Models.Latency(req); err == nil {
				lat = v
			}
		}
		res.Flows[i] = FlowStat{
			Flow:            st.spec,
			Path:            path,
			DeliveredBits:   st.delivered,
			MeanRate:        units.Bandwidth(st.delivered / life),
			Downtime:        st.downtime,
			TransferLatency: lat,
		}
	}
	if tl != cleanTimeline {
		rep := &FaultReport{
			Events:      tl.Events,
			Epochs:      numEpochs,
			MissedWakes: tl.MissedWakes,
			Reroutes:    reroutes,
		}
		for i := range states {
			if d := states[i].downtime; d > 0 {
				rep.StallSeconds += d
				rep.StalledFlows++
			}
		}
		res.Faults = rep
	}
	return res, nil
}

// switchesOn lists the switch nodes a path visits, walking the link
// sequence from the source host.
func (s *Sim) switchesOn(path []int, src int) []int {
	var out []int
	at := src
	for _, lid := range path {
		at = s.Top.Peer(lid, at)
		if s.Top.Nodes[at].IsSwitch() {
			out = append(out, at)
		}
	}
	return out
}

// EnergyReport is the baseline network energy of a simulation under a
// uniform device proportionality: switches as two-state devices, optical
// transceivers on inter-switch links (two per link, drawing power whenever
// the link is up).
type EnergyReport struct {
	SwitchEnergy      units.Energy
	TransceiverEnergy units.Energy
	// BusySwitchSeconds sums switch busy time, for efficiency metrics.
	BusySwitchSeconds units.Seconds
	// Horizon echoes the simulated time span.
	Horizon units.Seconds
}

// Total returns switch plus transceiver energy.
func (r EnergyReport) Total() units.Energy { return r.SwitchEnergy + r.TransceiverEnergy }

// Energy integrates baseline network energy over a result. proportionality
// applies to every device; law selects the power-vs-load behavior.
func (s *Sim) Energy(res *Result, proportionality float64, law PowerLaw) (EnergyReport, error) {
	var rep EnergyReport
	rep.Horizon = res.Horizon
	switchModel, err := power.NewModel(device.SwitchMaxPower, proportionality)
	if err != nil {
		return rep, err
	}
	for _, sw := range s.Top.SwitchIDs() {
		tr := res.SwitchTrace[sw]
		e, err := s.deviceEnergy("switch", sw, switchModel, device.SwitchCapacity, law, tr)
		if err != nil {
			return rep, fmt.Errorf("netsim: switch %d: %w", sw, err)
		}
		rep.SwitchEnergy += e
		rep.BusySwitchSeconds += tr.BusyTime()
	}
	for _, l := range s.Top.Links {
		if !l.Optical {
			continue
		}
		xp, err := device.TransceiverPower(l.Speed)
		if err != nil {
			return rep, err
		}
		m, err := power.NewModel(2*xp, proportionality)
		if err != nil {
			return rep, err
		}
		e, err := s.deviceEnergy("link", l.ID, m, s.capacityOf(l), law, res.LinkTrace[l.ID])
		if err != nil {
			return rep, fmt.Errorf("netsim: link %d: %w", l.ID, err)
		}
		rep.TransceiverEnergy += e
	}
	return rep, nil
}

// deviceEnergy integrates one device's trace, delegating to the co-sim
// power hook when attached and failing closed to the in-process model on
// hook error.
func (s *Sim) deviceEnergy(dev string, id int, m power.Model, capacity units.Bandwidth, law PowerLaw, tr Trace) (units.Energy, error) {
	if s.Models != nil && s.Models.Power != nil {
		req := PowerRequest{
			Device:          dev,
			ID:              id,
			Max:             m.Max,
			Proportionality: m.Proportionality,
			Law:             law,
			Capacity:        capacity,
			Trace:           tr,
		}
		if e, err := s.Models.Power(req); err == nil {
			return e, nil
		}
	}
	return tr.Energy(m, capacity, law)
}
