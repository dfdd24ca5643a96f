// Package netsim is a flow-level network simulator on explicit fat-tree
// topologies: flows pick ECMP paths, link rates follow demand-bounded
// max-min fairness, and the simulator emits per-link and per-switch
// utilization traces that the §4 mechanism models (EEE, rate adaptation,
// pipeline parking, OCS) consume, plus baseline energy accounting.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

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
	// Faults, when non-nil and non-empty, injects a deterministic link and
	// switch fault timeline into the run: flows reroute around dead links
	// at each fault epoch and flows with no surviving path stall (and
	// accumulate downtime), so no flow's rate crosses a dead link. A nil or
	// empty trace reproduces the fault-free behavior exactly.
	Faults *fault.Trace
	// Models, when non-nil, delegates per-transfer latency and per-device
	// power to external co-simulation hooks (see Models). Nil keeps the
	// in-process formulas and adds nothing to the hot path.
	Models *Models

	// warm is what the Sim reuses across runs and across Reset: the path
	// cache and the per-run arenas.
	warm warmState
}

// WarmCap is the most warm-state bytes Trim lets a Sim keep between rows.
// It holds a k=4 faults row over 32 iterations (about 1.3 MiB) and every
// topologies row up to 32 hosts (at most about 2.0 MiB, path table
// included, on railopt and the tori), so a worker slot's path table and
// arenas survive from one zoo row to the next.
const WarmCap = 4 << 20

// warmState is a Sim's unexported state, reused across runs. Nothing in a
// Result aliases it.
type warmState struct {
	// top is the topology the path table was enumerated on. A run on any
	// other topology empties the table first, keeping its capacity.
	top *fattree.Topology

	// paths memoizes the ECMP path enumeration (and the switches each path
	// visits) per (src,dst) pair of top: the enumeration depends only on
	// the topology, never on seed or routing mode, so it survives across
	// Run calls.
	paths pathTable

	// indices[:n] is [0, n): the alive set of an n-path set in any epoch
	// with no dead links, shared by every cached path set.
	indices []int

	// alive holds the current fault epoch's filtered alive sets, each
	// pathSet's cut at its aliveOff. Routing runs epoch by epoch, so the
	// arena is emptied at each epoch and a set filters at most once per
	// epoch.
	alive []int

	// usedSwitches marks, by node ID, the switches already chosen by
	// ConcentrateRouting within one Run.
	usedSwitches []bool

	// runGen counts runs; it stamps the per-pathSet alive caches so a new
	// run (possibly with a different fault trace) never reuses a stale
	// filtered path list.
	runGen uint64

	// Per-run arenas and the solve state.
	scratch runScratch
}

// Reset readies s for new runs on top. Every exported field is cleared, so
// no routing mode, seed, fault trace or co-sim model carries over from
// earlier runs; the warm state is kept.
func (s *Sim) Reset(top *fattree.Topology) { *s = Sim{Top: top, warm: s.warm} }

// Trim releases the warm state if it holds more than WarmCap bytes, so one
// large run cannot pin memory in a Sim kept for reuse.
func (s *Sim) Trim() {
	if s.WarmBytes() > WarmCap {
		s.warm = warmState{}
	}
}

// WarmBytes estimates the heap bytes s keeps between runs: the capacity of
// every arena, the path table's included, exactly, plus an estimate of the
// path table's index map.
func (s *Sim) WarmBytes() int {
	w := &s.warm
	sc := &w.scratch
	ss := &sc.solve
	return w.paths.bytes() + capBytes(w.indices) + capBytes(w.alive) + capBytes(w.usedSwitches) +
		capBytes(sc.states) + capBytes(sc.routes) + capBytes(sc.epochOff) + capBytes(sc.buckets) +
		capBytes(sc.times) + capBytes(sc.byStart) + capBytes(sc.cur) + capBytes(sc.caps) +
		capBytes(sc.devRate) + capBytes(sc.marked) + capBytes(sc.open) + capBytes(sc.touched) +
		capBytes(sc.prev) + capBytes(sc.emitted) + capBytes(sc.segOff) +
		capBytes(ss.demands) + capBytes(ss.paths) + capBytes(ss.lastDemands) + capBytes(ss.lastPaths) +
		ss.solver.bytes()
}

// capBytes is the size of s's backing array.
func capBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// usePaths points the path table at top, emptying it (and every scratch
// reference into its path sets) when it was built on another topology, so
// a run never routes on stale paths. The table keeps its capacity for the
// new topology's paths. The solve memo's rows are cleared too: a reused
// arena can give a new path the address and length of an old one.
func (w *warmState) usePaths(top *fattree.Topology) {
	if w.top == top {
		return
	}
	w.top = top
	w.paths.reset()
	sc := &w.scratch
	clear(sc.states[:cap(sc.states)])
	clear(sc.solve.paths[:cap(sc.solve.paths)])
	clear(sc.solve.lastPaths[:cap(sc.solve.lastPaths)])
}

// pathTable is the path cache in compact form, in int32 so that the table
// a worker slot keeps between rows stays small. Path k is
// links[ends[k]:ends[k+1]], and a path of n links visits n-1 switches
// (every node after the source host but the destination host), so path k's
// switches are switches[ends[k]-k : ends[k+1]-k-1]. A pair's paths are
// consecutive; its pathSet records the first and the count. Path sets
// come from a chunked slab, so a *pathSet stays valid while the slab
// grows. The arenas and chunks hold no pointers, so the garbage collector
// never scans them, and reset keeps every backing array for the next
// topology. usePaths resets the table before a run uses it.
type pathTable struct {
	links    []int32
	ends     []int32 // ends[0] == 0
	switches []int32
	chunks   []*[setChunk]pathSet
	used     int // path sets handed out from chunks
	index    map[uint64]int32
	// indexPeak is the most entries index has held; a cleared map keeps
	// its buckets, so it sizes the map's estimate in bytes.
	indexPeak int

	// pairLinks and pairEnds receive one pair's AppendPaths output before
	// it is narrowed into the arenas.
	pairLinks, pairEnds []int
}

// setChunk is the slab's chunk size in path sets.
const setChunk = 256

// reset empties the table, keeping its capacity.
func (t *pathTable) reset() {
	t.links, t.switches = t.links[:0], t.switches[:0]
	t.ends = append(t.ends[:0], 0)
	t.used = 0
	clear(t.index)
}

// bytes is the table's heap footprint: the arenas' and slab's capacity
// exactly, the index map estimated from its peak size.
func (t *pathTable) bytes() int {
	return capBytes(t.links) + capBytes(t.ends) + capBytes(t.switches) +
		capBytes(t.pairLinks) + capBytes(t.pairEnds) + capBytes(t.chunks) +
		len(t.chunks)*int(unsafe.Sizeof([setChunk]pathSet{})) + t.indexPeak*indexEntryBytes
}

// indexEntryBytes estimates one index map entry's share of the map: a
// 12-byte key and value slot padded to 16, a control byte, at 7/8 load.
const indexEntryBytes = 20

// newSet hands out a zeroed path set from the slab.
func (t *pathTable) newSet() (*pathSet, int32) {
	if t.used == len(t.chunks)*setChunk {
		t.chunks = append(t.chunks, new([setChunk]pathSet))
	}
	i := t.used
	t.used++
	ps := &t.chunks[i/setChunk][i%setChunk]
	*ps = pathSet{}
	return ps, int32(i)
}

// set returns path set i of the slab.
func (t *pathTable) set(i int32) *pathSet { return &t.chunks[i/setChunk][i%setChunk] }

// path returns ps's path i as link IDs.
func (t *pathTable) path(ps *pathSet, i int) []int32 {
	k := int(ps.first) + i
	lo, hi := t.ends[k], t.ends[k+1]
	return t.links[lo:hi:hi]
}

// switchesOf returns the switches ps's path i visits, in path order.
func (t *pathTable) switchesOf(ps *pathSet, i int) []int32 {
	k := int(ps.first) + i
	lo, hi := int(t.ends[k])-k, int(t.ends[k+1])-k-1
	return t.switches[lo:hi:hi]
}

// pathSet is one (src,dst) pair's cached ECMP choices: paths first to
// first+n-1 of the table.
type pathSet struct {
	first, n int32

	// hash is the FNV-1a state after folding in (src, dst); HashECMP
	// folds in only the seed per route.
	hash uint64

	// alive caches the indices of paths surviving the current fault
	// epoch's dead-link set, as warmState.alive[aliveOff:aliveOff+aliveN].
	// Stamped with (run generation, epoch): a link failing or recovering
	// starts a new epoch, which invalidates the entry on first use.
	aliveOff, aliveN int32
	aliveRun         uint64
	aliveEpoch       int
}

// runScratch is one Sim's per-run arenas, reused across Run calls.
// Nothing in a Result aliases it.
type runScratch struct {
	solve    solveScratch
	states   []flowState
	routes   []route // every flow's epoch window, back to back
	epochOff []int   // per-epoch bucket bounds into buckets
	buckets  []int   // flow indices per epoch, in input order
	times    []units.Seconds
	byStart  []int
	cur      []int     // the current interval's active flows
	caps     []float64 // link capacities by link ID

	// Trace emission state, indexed by device: link l is device l and
	// node n is device len(Links)+n. devRate[d] is the current interval's
	// rate sum, valid only while marked[d]; open[d] is the device's
	// not-yet-emitted segment. touched and prev list the devices marked
	// in the current and previous interval; emitted collects closed
	// segments in time order; segOff is the counting sort's offsets.
	devRate       []float64
	marked        []bool
	open          []openSegment
	touched, prev []int
	emitted       []deviceSegment
	segOff        []int
}

// openSegment is a device's current constant-rate span, still open at its
// end.
type openSegment struct {
	start units.Seconds
	rate  units.Bandwidth
}

// deviceSegment is one closed segment of one device's trace.
type deviceSegment struct {
	dev int
	seg Segment
}

// solveScratch is the solve state: the current interval's rows, one per
// unstalled active flow.
type solveScratch struct {
	solver  Solver
	demands []float64
	paths   [][]int32

	// The last solve's inputs and rates. An interval whose capacity slice
	// (by identity) and ordered (path identity, demand) rows equal them
	// reuses lastRates instead of solving again: consecutive intervals of a
	// periodic job often repeat a solve exactly. lastRates is the solver's
	// own slice, valid until its next Solve.
	memo        bool
	lastCaps    []float64
	lastDemands []float64
	lastPaths   [][]int32
	lastRates   []float64
}

// rates returns the max-min fair rates for the rows in ss.demands and
// ss.paths under capacity, reusing the previous solve when its inputs
// repeat.
func (ss *solveScratch) rates(capacity []float64) ([]float64, error) {
	if ss.memo && sameSlice(capacity, ss.lastCaps) && slices.Equal(ss.demands, ss.lastDemands) &&
		slices.EqualFunc(ss.paths, ss.lastPaths, sameSlice[int32]) {
		return ss.lastRates, nil
	}
	ss.memo = false // Solve overwrites lastRates, the solver's own slice
	rates, err := ss.solver.Solve(ss.demands, ss.paths, capacity)
	if err != nil {
		return nil, err
	}
	// Keep this solve's rows as the memo; the old memo's buffers become the
	// next interval's rows.
	ss.demands, ss.lastDemands = ss.lastDemands, ss.demands
	ss.paths, ss.lastPaths = ss.lastPaths, ss.paths
	ss.memo, ss.lastCaps, ss.lastRates = true, capacity, rates
	return rates, nil
}

// sameSlice reports whether a and b are the same slice: equal length and,
// when non-empty, the same first element.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// New returns a simulator over a topology.
func New(top *fattree.Topology) *Sim {
	return &Sim{Top: top}
}

// FlowStat reports one flow's outcome. It holds no pointers, so a
// Result's flow stats cost the garbage collector nothing to scan.
type FlowStat struct {
	// DeliveredBits integrates the achieved rate over the flow lifetime.
	DeliveredBits float64
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
// switch, plus flow outcomes. Traces cover [0, Horizon] (from the earliest
// flow start, if one starts before 0). Every trace is cut from one shared
// segment arena with cap == len, so appending to one never writes into
// another.
type Result struct {
	Horizon units.Seconds
	// LinkTrace[id] is link id's trace, for every link in the topology.
	LinkTrace []Trace
	// SwitchTrace[id] is node id's trace: one per switch, nil for hosts.
	SwitchTrace []Trace
	// Flows[i] reports the run's flows[i].
	Flows []FlowStat
	// Faults reports fault impact; nil when the run had no fault trace.
	Faults *FaultReport
}

// pathsFor returns the cached path set for a pair, enumerating it into the
// path table on first use.
func (s *Sim) pathsFor(src, dst int) (*pathSet, error) {
	t := &s.warm.paths
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if i, ok := t.index[key]; ok {
		return t.set(i), nil
	}
	links, ends, err := s.Top.AppendPaths(t.pairLinks[:0], t.pairEnds[:0], src, dst)
	if err != nil {
		return nil, err
	}
	t.pairLinks, t.pairEnds = links, ends
	first, base := len(t.ends)-1, len(t.links)
	t.links = slices.Grow(t.links, len(links))[:base+len(links)]
	for j, lid := range links {
		t.links[base+j] = int32(lid)
	}
	start := 0
	for _, end := range ends {
		t.ends = append(t.ends, int32(base+end))
		// Walk the path from the source host, recording every node but the
		// last (the destination host): those are its switches.
		at := src
		for _, lid := range links[start : end-1] {
			at = s.Top.Peer(lid, at)
			t.switches = append(t.switches, int32(at))
		}
		start = end
	}
	ps, i := t.newSet()
	ps.first, ps.n = int32(first), int32(len(ends))
	ps.hash = fnvFold(fnvFold(fnvOffset, uint64(src)), uint64(dst))
	for len(s.warm.indices) < int(ps.n) {
		s.warm.indices = append(s.warm.indices, len(s.warm.indices))
	}
	if t.index == nil {
		t.index = make(map[uint64]int32)
	}
	t.index[key] = i
	t.indexPeak = max(t.indexPeak, len(t.index))
	return ps, nil
}

// aliveFor returns the indices of ps's paths that avoid every dead link.
// An epoch with no dead links (nil dead) keeps every path; otherwise the
// pathSet's cached filter is refreshed when it is stale for this
// (run, epoch) — the invalidation step after a link fails or recovers.
func (s *Sim) aliveFor(ps *pathSet, epoch int, dead []bool) []int {
	w := &s.warm
	if dead == nil {
		n := int(ps.n)
		return w.indices[:n:n]
	}
	if ps.aliveRun != w.runGen || ps.aliveEpoch != epoch {
		off := len(w.alive)
		for i := 0; i < int(ps.n); i++ {
			ok := true
			for _, l := range w.paths.path(ps, i) {
				if dead[l] {
					ok = false
					break
				}
			}
			if ok {
				w.alive = append(w.alive, i)
			}
		}
		ps.aliveOff, ps.aliveN = int32(off), int32(len(w.alive)-off)
		ps.aliveRun, ps.aliveEpoch = w.runGen, epoch
	}
	lo, hi := int(ps.aliveOff), int(ps.aliveOff+ps.aliveN)
	return w.alive[lo:hi:hi]
}

// cleanTimeline is the single fault-free epoch a run without faults uses.
var cleanTimeline = &fault.Timeline{Starts: []units.Seconds{0}, Dead: [][]bool{nil}, DeadCount: []int{0}}

// route is one flow's routing decision within one fault epoch: an index
// into the flow's pathSet. It holds no pointers, so the route arena costs
// the garbage collector nothing to scan.
type route struct {
	path int32 // index of the path within its pathSet
	// stalled marks an epoch where every ECMP path crossed a dead link.
	stalled bool
	// rerouted marks an epoch where the flow routed while at least one of
	// its ECMP paths was dead.
	rerouted bool
}

// routeFor picks one of ps's paths per the routing policy, restricted to
// paths avoiding the epoch's dead links. With no dead links the choice is
// identical to the fault-free policy.
func (s *Sim) routeFor(ps *pathSet, epoch int, dead []bool) route {
	alive := s.aliveFor(ps, epoch, dead)
	if len(alive) == 0 {
		return route{stalled: true}
	}
	rerouted := len(alive) < int(ps.n)
	if s.Routing == ConcentrateRouting {
		// The first path with the fewest new switches wins, so scoring a
		// path stops once it cannot beat the best so far, and the scan
		// stops at a path that adds none.
		used := s.warm.usedSwitches
		best, bestNew := alive[0], len(s.Top.Nodes)+1
		for _, i := range alive {
			newSwitches := 0
			for _, sw := range s.warm.paths.switchesOf(ps, i) {
				if !used[sw] {
					if newSwitches++; newSwitches >= bestNew {
						break
					}
				}
			}
			if newSwitches < bestNew {
				best, bestNew = i, newSwitches
				if bestNew == 0 {
					break
				}
			}
		}
		for _, sw := range s.warm.paths.switchesOf(ps, best) {
			used[sw] = true
		}
		return route{path: int32(best), rerouted: rerouted}
	}
	// FNV-1a over (src, dst, seed) in little-endian order, with the
	// (src, dst) prefix folded once per pathSet. The hash picks among
	// surviving paths, so the fault-free choice (all paths alive) is
	// unchanged.
	h := fnvFold(ps.hash, s.ECMPSeed)
	i := alive[h%uint64(len(alive))]
	return route{path: int32(i), rerouted: rerouted}
}

const fnvOffset = 14695981039346656037

// fnvFold feeds v's 8 little-endian bytes into the FNV-1a state h.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

// flowState is one flow's per-epoch routing decisions and running
// account; states[i] belongs to flows[i].
type flowState struct {
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

// RunParallel is Run; workers is ignored.
//
// Deprecated: call Run.
func (s *Sim) RunParallel(flows []traffic.Flow, workers int) (*Result, error) { return s.Run(flows) }

// Run simulates the flows and returns utilization traces. The horizon is
// the latest flow end time (0 horizon is an error: nothing to simulate).
func (s *Sim) Run(flows []traffic.Flow) (*Result, error) {
	if s.Top == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("netsim: no flows")
	}
	w := &s.warm
	w.usePaths(s.Top)
	w.usedSwitches = resize(w.usedSwitches, len(s.Top.Nodes))
	w.runGen++
	sc := &w.scratch
	// The caps slice outlives a run and Sim.Top may change between runs, so
	// a remembered solve from an earlier run could match a reused capacity
	// slice holding other values.
	sc.solve.memo = false
	var horizon units.Seconds
	for i, f := range flows {
		if !finite(float64(f.Start)) || !finite(float64(f.End)) || !finite(float64(f.Demand)) {
			return nil, fmt.Errorf("netsim: flow %d non-finite start %v, end %v or demand %v", i, f.Start, f.End, f.Demand)
		}
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
		states[i] = flowState{e0: e0, e1: e1}
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
		w.alive = w.alive[:0] // the last epoch's alive sets are stale
		for _, i := range buckets[lo:epochOff[e]] {
			st := &states[i]
			if st.ps == nil {
				ps, err := s.pathsFor(flows[i].Src, flows[i].Dst)
				if err != nil {
					return nil, fmt.Errorf("netsim: flow %d: %w", i, err)
				}
				st.ps = ps
			}
			rt := s.routeFor(st.ps, e, dead)
			if rt.rerouted && !rt.stalled {
				reroutes++
			}
			st.routes[e-st.e0] = rt
		}
		lo = epochOff[e]
	}

	// Event times: every flow boundary and epoch start plus 0 and horizon,
	// sorted unique, so each interval lies within exactly one epoch.
	times := slices.Grow(sc.times[:0], 2*len(flows)+numEpochs+1)
	times = append(times, 0, horizon)
	for _, f := range flows {
		times = append(times, f.Start, f.End)
	}
	times = append(times, tl.Starts[1:]...)
	slices.Sort(times)
	times = slices.Compact(times)
	sc.times = times

	// Link capacities by link ID, one slice for every epoch's solve.
	nl := len(s.Top.Links)
	caps := resize(sc.caps, nl)
	sc.caps = caps
	for _, l := range s.Top.Links {
		caps[l.ID] = float64(l.Speed)
	}

	// Flows enter the sweep in (start, input index) order, so each
	// interval's active set, and with it the solver's row order, is
	// deterministic.
	byStart := resize(sc.byStart, len(flows))
	sc.byStart = byStart
	for i := range byStart {
		byStart[i] = i
	}
	slices.SortStableFunc(byStart, func(a, b int) int {
		sa, sb := flows[a].Start, flows[b].Start
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	})

	// One forward pass over the intervals [times[ti], times[ti+1]): update
	// the active set and the epoch, solve the fairness problem, and add
	// delivered bits and per-device rate sums in time order. Only devices
	// on an active flow's path are summed; a device's open segment is closed
	// only when its rate changes, which can happen only to a device touched
	// in this interval or the previous one (an untouched device carries
	// zero).
	nd := nl + len(s.Top.Nodes)
	devRate := resize(sc.devRate, nd)
	marked := resize(sc.marked, nd)
	open := resize(sc.open, nd)
	sc.devRate, sc.marked, sc.open = devRate, marked, open
	for d := range open {
		open[d].start = times[0]
	}
	touched, prev := sc.touched[:0], sc.prev[:0]
	emitted := sc.emitted[:0]
	add := func(d int, rate float64) {
		if !marked[d] {
			marked[d] = true
			devRate[d] = 0
			touched = append(touched, d)
		}
		devRate[d] += rate
	}
	closeAt := func(d int, t units.Seconds) {
		o := open[d]
		emitted = append(emitted, deviceSegment{dev: d, seg: Segment{Start: o.start, End: t, Rate: o.rate}})
	}
	// settle closes d's open segment at t if d's rate changes there; the
	// first interval only sets the rate of the empty segment at times[0].
	settle := func(d int, t units.Seconds) {
		var rate units.Bandwidth
		if marked[d] {
			rate = units.Bandwidth(devRate[d])
		}
		if o := &open[d]; rate != o.rate {
			if o.start < t {
				closeAt(d, t)
			}
			o.start, o.rate = t, rate
		}
	}
	ss := &sc.solve
	cur := slices.Grow(sc.cur[:0], len(flows))
	next, epoch := 0, 0
	for ti := 0; ti+1 < len(times); ti++ {
		t0, t1 := times[ti], times[ti+1]
		for next < len(byStart) && flows[byStart[next]].Start <= t0 {
			cur = append(cur, byStart[next])
			next++
		}
		k := 0
		for _, fi := range cur {
			if flows[fi].End > t0 {
				cur[k] = fi
				k++
			}
		}
		cur = cur[:k]
		// Epoch starts are event times, so the interval lies inside exactly
		// one epoch.
		for epoch+1 < numEpochs && tl.Starts[epoch+1] <= t0 {
			epoch++
		}

		// Solve the unstalled flows over the one capacity slice. No row
		// crosses a dead link, because aliveFor keeps only paths that avoid
		// every dead link and a flow with none stalls, so a dead link's
		// capacity is never read and needs no zeroed per-epoch copy.
		ss.demands = slices.Grow(ss.demands[:0], len(cur))
		ss.paths = slices.Grow(ss.paths[:0], len(cur))
		for _, fi := range cur {
			st := &states[fi]
			if rt := st.routes[epoch-st.e0]; !rt.stalled {
				ss.demands = append(ss.demands, float64(flows[fi].Demand))
				ss.paths = append(ss.paths, w.paths.path(st.ps, int(rt.path)))
			}
		}
		var rates []float64
		if len(ss.demands) > 0 {
			var err error
			if rates, err = ss.rates(caps); err != nil {
				return nil, err
			}
		}

		// rates[r] belongs to the r-th unstalled flow of cur.
		dt := float64(t1 - t0)
		r := 0
		for _, fi := range cur {
			st := &states[fi]
			rt := st.routes[epoch-st.e0]
			if rt.stalled {
				st.downtime += t1 - t0
				continue
			}
			rate := rates[r]
			r++
			st.delivered += rate * dt
			for _, l := range w.paths.path(st.ps, int(rt.path)) {
				add(int(l), rate)
			}
			for _, sw := range w.paths.switchesOf(st.ps, int(rt.path)) {
				add(nl+int(sw), rate)
			}
		}
		for _, d := range prev {
			settle(d, t0)
		}
		for _, d := range touched {
			settle(d, t0)
		}
		for _, d := range touched {
			marked[d] = false
		}
		prev, touched = touched, prev[:0]
	}
	sc.cur, sc.touched, sc.prev = cur, touched, prev

	// Close every link's and switch's open segment at the last event time,
	// then counting-sort the segments by device into one exact arena. The
	// sort is stable, so each device's segments stay in time order.
	end := times[len(times)-1]
	for d := 0; d < nl; d++ {
		closeAt(d, end)
	}
	for _, n := range s.Top.Nodes {
		if n.IsSwitch() {
			closeAt(nl+n.ID, end)
		}
	}
	sc.emitted = emitted
	segOff := resize(sc.segOff, nd+1)
	sc.segOff = segOff
	for _, e := range emitted {
		segOff[e.dev+1]++
	}
	for d := 1; d <= nd; d++ {
		segOff[d] += segOff[d-1]
	}
	arena := make([]Segment, len(emitted))
	for _, e := range emitted {
		arena[segOff[e.dev]] = e.seg
		segOff[e.dev]++
	}
	// After the fill, segOff[d] is device d's end and segOff[d-1] its start.
	traces := make([]Trace, nd)
	lo = 0
	for d := range traces {
		if hi := segOff[d]; hi > lo {
			traces[d] = arena[lo:hi:hi]
			lo = hi
		}
	}
	res := &Result{
		Horizon:     horizon,
		LinkTrace:   traces[:nl:nl],
		SwitchTrace: traces[nl:],
		Flows:       make([]FlowStat, len(flows)),
	}

	for i := range states {
		st, f := &states[i], &flows[i]
		// routes[0] is the start epoch's decision.
		var path []int32
		if rt := st.routes[0]; !rt.stalled {
			path = w.paths.path(st.ps, int(rt.path))
		}
		// Bottleneck over the start-epoch path's link capacities.
		var bottleneck float64
		for pi, l := range path {
			if c := caps[l]; pi == 0 || c < bottleneck {
				bottleneck = c
			}
		}
		lat := TransferLatency(len(path), st.delivered, bottleneck)
		if s.Models != nil && s.Models.Latency != nil {
			req := LatencyRequest{Src: f.Src, Dst: f.Dst, Hops: len(path), Bits: st.delivered, BottleneckBps: bottleneck}
			if v, err := s.Models.Latency(req); err == nil {
				lat = v
			}
		}
		res.Flows[i] = FlowStat{DeliveredBits: st.delivered, Downtime: st.downtime, TransferLatency: lat}
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

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

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
	if err := s.checkResult(res); err != nil {
		return rep, err
	}
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
		e, err := s.deviceEnergy("link", l.ID, m, l.Speed, law, res.LinkTrace[l.ID])
		if err != nil {
			return rep, fmt.Errorf("netsim: link %d: %w", l.ID, err)
		}
		rep.TransceiverEnergy += e
	}
	return rep, nil
}

// checkResult rejects a nil result or one whose traces do not index this
// Sim's topology (a Result of a run on a different topology).
func (s *Sim) checkResult(res *Result) error {
	if res == nil {
		return fmt.Errorf("netsim: nil result")
	}
	if len(res.LinkTrace) != len(s.Top.Links) || len(res.SwitchTrace) != len(s.Top.Nodes) {
		return fmt.Errorf("netsim: result has %d link and %d node traces, topology has %d links and %d nodes",
			len(res.LinkTrace), len(res.SwitchTrace), len(s.Top.Links), len(s.Top.Nodes))
	}
	return nil
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
