package topo

import (
	"fmt"
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
// set and fault-epoch rerouting has somewhere to steer. Call it once the
// graph is complete: the enumerator keeps its own copy of the adjacency.
func InstallPaths(t *fattree.Topology, slack int) {
	t.SetPathFn(newGraph(t, slack).appendPaths)
}

// graph is the enumerator's view of one topology, built once by
// InstallPaths: node v's (link, peer) hops in link-ID order are
// hops[off[v]:off[v+1]], and host[v] marks the hosts. Each destination's
// BFS distance field is filled on its first query and shared by every
// source after it; the sync.Once per destination makes that safe for
// concurrent Paths callers.
type graph struct {
	off    []int32
	hops   []hop
	host   []bool
	slack  int
	fields []distField // by node ID; only host entries are ever filled
}

// hop is one step out of a node: the link taken and the node it reaches.
type hop struct{ link, peer int32 }

// distField is one destination's BFS distances: dist[v] is v's hop count
// to the destination, -1 when unreachable.
type distField struct {
	once sync.Once
	dist []int32
}

// newGraph builds t's enumerator graph, every distance field still empty.
func newGraph(t *fattree.Topology, slack int) *graph {
	n := len(t.Nodes)
	g := &graph{
		off:    make([]int32, n+1),
		hops:   make([]hop, 0, 2*len(t.Links)),
		host:   make([]bool, n),
		slack:  slack,
		fields: make([]distField, n),
	}
	for v := range t.Nodes {
		g.host[v] = t.Nodes[v].Kind == fattree.KindHost
		for _, lid := range t.LinksOf(v) {
			g.hops = append(g.hops, hop{int32(lid), int32(t.Peer(lid, v))})
		}
		g.off[v+1] = int32(len(g.hops))
	}
	return g
}

// out returns v's hops in link-ID order.
func (g *graph) out(v int32) []hop { return g.hops[g.off[v]:g.off[v+1]] }

// distTo returns dst's distance field, running its BFS on first use with
// w's queue. Host nodes are degree-1 leaves, so distances through other
// hosts never shortcut.
func (g *graph) distTo(dst int, w *walk) []int32 {
	f := &g.fields[dst]
	f.once.Do(func() {
		dist := make([]int32, len(g.host))
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue := append(w.queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, h := range g.out(v) {
				if dist[h.peer] < 0 {
					dist[h.peer] = dist[v] + 1
					queue = append(queue, h.peer)
				}
			}
		}
		w.queue = queue
		f.dist = dist
	})
	return f.dist
}

// walk holds one enumeration's working buffers — the BFS queue, the DFS
// on-path marker, the current-path stack, and the collected paths (back to
// back in arena, each ending at its ends entry) — reused across calls
// through walkPool.
type walk struct {
	queue  []int32
	onPath []bool
	cur    []int
	arena  []int
	ends   []int

	// The current pair's walk parameters, read by dfs.
	g      *graph
	dist   []int32
	dst    int32
	budget int32
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// appendPaths is the installed enumerator, with fattree.AppendPaths's
// contract: the bounded DFS over dst's distance field, then the collected
// paths appended shortest first (stable on discovery order), so ECMP
// hashing favors minimal routes and detours serve as fault spares.
func (g *graph) appendPaths(links, ends []int, src, dst int) ([]int, []int, error) {
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	dist := g.distTo(dst, w)
	if dist[src] < 0 {
		return links, ends, fmt.Errorf("topo: no path between hosts %d and %d", src, dst)
	}
	if cap(w.onPath) < len(g.host) {
		w.onPath = make([]bool, len(g.host))
	}
	w.onPath = w.onPath[:len(g.host)]
	w.cur, w.arena, w.ends = w.cur[:0], w.arena[:0], w.ends[:0]
	w.g, w.dist, w.dst, w.budget = g, dist, int32(dst), dist[src]+int32(g.slack)
	w.onPath[src] = true
	w.dfs(int32(src), 0)
	w.onPath[src] = false
	w.g, w.dist = nil, nil // the pool must not pin the topology
	if len(w.ends) == 0 {
		return links, ends, fmt.Errorf("topo: no path between hosts %d and %d", src, dst)
	}
	// Every path is between dist[src] and the budget long: one pass per
	// length appends them in a stable shortest-first order.
	for n := int(dist[src]); n <= int(w.budget); n++ {
		start := 0
		for _, end := range w.ends {
			if end-start == n {
				links = append(links, w.arena[start:end]...)
				ends = append(ends, len(links))
			}
			start = end
		}
	}
	return links, ends, nil
}

// dfs extends the current path from v in link-ID order, pruned by the
// distance field: a step onto p is viable only if the spent length plus
// p's remaining distance fits the budget. onPath keeps paths simple. Each
// path reaching dst is appended to the arena, up to maxPaths.
func (w *walk) dfs(v, spent int32) {
	for _, h := range w.g.out(v) {
		p := h.peer
		if w.onPath[p] || w.dist[p] < 0 || spent+1+w.dist[p] > w.budget {
			continue
		}
		// Other hosts are dead ends; only dst terminates a path.
		if w.g.host[p] && p != w.dst {
			continue
		}
		w.cur = append(w.cur, int(h.link))
		if p == w.dst {
			w.arena = append(w.arena, w.cur...)
			w.ends = append(w.ends, len(w.arena))
		} else {
			w.onPath[p] = true
			w.dfs(p, spent+1)
			w.onPath[p] = false
		}
		w.cur = w.cur[:len(w.cur)-1]
		if len(w.ends) >= maxPaths {
			return
		}
	}
}
