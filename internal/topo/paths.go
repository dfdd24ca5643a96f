package topo

import (
	"fmt"
	"slices"
	"sync"

	"netpowerprop/internal/fattree"
)

// maxPaths caps the ECMP path set per host pair: enough diversity for the
// fairness solver and fault rerouting without quadratic blowups on dense
// graphs. Enumeration order is by link ID at every branch, so the first
// maxPaths paths are the same on every run.
const maxPaths = 32

// InstallPaths equips a topology with a deterministic breadth-first path
// enumerator: all simple paths between two hosts no longer than the
// shortest path plus `slack` links, capped at maxPaths, explored in link-ID
// order. slack 0 yields exactly the shortest-path ECMP set; torus- and
// dragonfly-style topologies pass slack 2 so one-detour routes join the
// set and fault-epoch rerouting has somewhere to steer.
func InstallPaths(t *fattree.Topology, slack int) {
	t.SetPathFn(func(src, dst int) ([][]int, error) {
		return enumerate(t, src, dst, slack)
	})
}

// scratch holds the per-enumeration working buffers — the BFS distance
// field and queue, the DFS on-path marker, the current-path stack, and the
// collected paths (back to back in arena, each ending at its ends entry).
// They are reused across host pairs through scratchPool: path enumeration
// runs for every ordered pair of a topology, so per-call allocation of
// these slices dominated the profile. Only the exact-size copy of the
// result is allocated per call, because it escapes to the caller.
type scratch struct {
	dist   []int
	queue  []int
	onPath []bool
	cur    []int
	arena  []int
	ends   []int

	// The current pair's walk parameters, read by dfs.
	t      *fattree.Topology
	dst    int
	budget int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset sizes the buffers for an n-node graph and restores their
// invariants: dist all -1, onPath all false, every stack empty.
func (s *scratch) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]int, n)
		s.onPath = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.onPath = s.onPath[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
	clear(s.onPath)
	s.queue = s.queue[:0]
	s.cur = s.cur[:0]
	s.arena = s.arena[:0]
	s.ends = s.ends[:0]
}

// enumerate runs the bounded DFS over the distance field from dst.
func enumerate(t *fattree.Topology, src, dst, slack int) ([][]int, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.reset(len(t.Nodes))

	// BFS from dst: dist[v] = hops to dst, -1 unreachable. Host nodes are
	// degree-1 leaves, so distances through other hosts never shortcut.
	dist := s.dist
	dist[dst] = 0
	queue := append(s.queue, dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, lid := range t.LinksOf(v) {
			p := t.Peer(lid, v)
			if dist[p] < 0 {
				dist[p] = dist[v] + 1
				queue = append(queue, p)
			}
		}
	}
	s.queue = queue[:0] // keep the grown buffer for the next pair
	if dist[src] < 0 {
		return nil, fmt.Errorf("topo: no path between hosts %d and %d", src, dst)
	}

	s.t, s.dst, s.budget = t, dst, dist[src]+slack
	s.onPath[src] = true
	s.dfs(src, 0)
	s.onPath[src] = false
	s.t = nil // the pool must not pin the topology
	if len(s.ends) == 0 {
		return nil, fmt.Errorf("topo: no path between hosts %d and %d", src, dst)
	}

	// Copy the collected paths out of the scratch into one exact-size
	// arena, each path cut with cap == len so an append by the caller
	// reallocates instead of overwriting its neighbour.
	arena := make([]int, len(s.arena))
	copy(arena, s.arena)
	paths := make([][]int, len(s.ends))
	start := 0
	for i, end := range s.ends {
		paths[i] = arena[start:end:end]
		start = end
	}
	// Shortest first (stable on discovery order), so ECMP hashing favors
	// minimal routes and detours serve as fault spares.
	slices.SortStableFunc(paths, func(a, b []int) int { return len(a) - len(b) })
	return paths, nil
}

// dfs extends the current path from v in link-ID order, pruned by the
// distance field: a step onto p is viable only if the spent length plus
// p's remaining distance fits the budget. onPath keeps paths simple. Each
// path reaching dst is appended to the scratch arena, up to maxPaths.
func (s *scratch) dfs(v, spent int) {
	t := s.t
	for _, lid := range t.LinksOf(v) {
		p := t.Peer(lid, v)
		if s.onPath[p] || s.dist[p] < 0 || spent+1+s.dist[p] > s.budget {
			continue
		}
		// Other hosts are dead ends; only dst terminates a path.
		if t.Nodes[p].Kind == fattree.KindHost && p != s.dst {
			continue
		}
		s.cur = append(s.cur, lid)
		if p == s.dst {
			s.arena = append(s.arena, s.cur...)
			s.ends = append(s.ends, len(s.arena))
		} else {
			s.onPath[p] = true
			s.dfs(p, spent+1)
			s.onPath[p] = false
		}
		s.cur = s.cur[:len(s.cur)-1]
		if len(s.ends) >= maxPaths {
			return
		}
	}
}
