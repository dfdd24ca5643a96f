package fattree

import (
	"errors"
	"fmt"
	"sync"

	"netpowerprop/internal/units"
)

// Typed path-query errors, so callers can distinguish a degenerate query
// from a genuinely broken topology with errors.Is.
var (
	// ErrSameHost is returned by Paths when src == dst: a host-to-itself
	// query has no network path by definition.
	ErrSameHost = errors.New("src and dst are the same host")
	// ErrUnknownNode is returned when a node ID is outside the topology.
	ErrUnknownNode = errors.New("unknown node")
)

// NodeKind distinguishes topology node roles.
type NodeKind int

// Node kinds, bottom-up.
const (
	KindHost NodeKind = iota
	KindEdge
	KindAgg
	KindCore
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindEdge:
		return "edge"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one vertex of an explicit topology: a host or a switch.
type Node struct {
	ID   int
	Kind NodeKind
	// Pod is the pod index for edge/agg switches and hosts; -1 for core.
	Pod int
	// Index is the position within the pod (or within the core layer).
	Index int
}

// IsSwitch reports whether the node is a switch of any tier.
func (n Node) IsSwitch() bool { return n.Kind != KindHost }

// Link is an undirected edge between two nodes. Links are full duplex with
// the same speed each direction.
type Link struct {
	ID    int
	A, B  int // node IDs, A < B
	Speed units.Bandwidth
	// Optical marks switch-to-switch links (which carry two optical
	// transceivers in the power model); host links are electrical.
	Optical bool
}

// Topology is an explicit fat-tree graph, used by the flow-level simulator.
// Build it with BuildTwoTier or BuildThreeTier.
type Topology struct {
	Ports  int // switch radix k
	Stages int // 2 or 3
	Nodes  []Node
	Links  []Link

	hosts    []int          // node IDs of hosts in order
	adjacent [][]int        // node ID -> link IDs
	linkAt   map[[2]int]int // (min,max) node pair -> link ID

	// pathFn, when set, replaces the built-in Clos path enumeration for
	// topologies whose Pod/Kind semantics don't match a folded Clos (the
	// internal/topo zoo installs a BFS enumerator here). It is only called
	// with validated, distinct host IDs.
	pathFn func(links, ends []int, src, dst int) ([]int, []int, error)
}

// Hosts returns the node IDs of all hosts, in construction order.
func (t *Topology) Hosts() []int { return t.hosts }

// SwitchIDs returns the node IDs of all switches.
func (t *Topology) SwitchIDs() []int {
	var out []int
	for _, n := range t.Nodes {
		if n.IsSwitch() {
			out = append(out, n.ID)
		}
	}
	return out
}

// LinksOf returns the link IDs incident to a node.
func (t *Topology) LinksOf(node int) []int {
	if node < 0 || node >= len(t.adjacent) {
		return nil
	}
	return t.adjacent[node]
}

// LinkBetween returns the link joining two nodes, if any.
func (t *Topology) LinkBetween(a, b int) (Link, bool) {
	if a > b {
		a, b = b, a
	}
	id, ok := t.linkAt[[2]int{a, b}]
	if !ok {
		return Link{}, false
	}
	return t.Links[id], true
}

// Peer returns the node at the other end of a link.
func (t *Topology) Peer(linkID, node int) int {
	l := &t.Links[linkID]
	if l.A == node {
		return l.B
	}
	return l.A
}

// EdgeOf returns the edge switch a host attaches to.
func (t *Topology) EdgeOf(host int) (int, error) {
	if host < 0 || host >= len(t.Nodes) {
		return 0, fmt.Errorf("fattree: %w: node %d outside [0,%d)", ErrUnknownNode, host, len(t.Nodes))
	}
	n := t.Nodes[host]
	if n.Kind != KindHost {
		return 0, fmt.Errorf("fattree: node %d is a %v, not a host", host, n.Kind)
	}
	for _, lid := range t.adjacent[host] {
		p := t.Peer(lid, host)
		if t.Nodes[p].Kind == KindEdge {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fattree: host %d has no edge switch", host)
}

// SetPathFn installs a custom path enumerator, replacing the built-in
// Clos up/down enumeration. Generators for non-Clos topologies (dragonfly,
// torus, …) use this to keep Paths — and therefore netsim's ECMP routing
// and fault rerouting — working on arbitrary graphs. The enumerator has
// AppendPaths's shape and contract and must be deterministic; it is called
// with validated, distinct host IDs only.
func (t *Topology) SetPathFn(fn func(links, ends []int, src, dst int) ([]int, []int, error)) {
	t.pathFn = fn
}

// Paths enumerates the ECMP path set between two distinct hosts as
// sequences of link IDs, each cut with cap == len from one exact-size
// arena. It is AppendPaths into pooled buffers, copied out.
func (t *Topology) Paths(src, dst int) ([][]int, error) {
	buf := pathBufs.Get().(*pathBuf)
	defer pathBufs.Put(buf)
	var err error
	buf.links, buf.ends, err = t.AppendPaths(buf.links[:0], buf.ends[:0], src, dst)
	if err != nil {
		return nil, err
	}
	arena := make([]int, len(buf.links))
	copy(arena, buf.links)
	paths := make([][]int, len(buf.ends))
	start := 0
	for i, end := range buf.ends {
		paths[i] = arena[start:end:end]
		start = end
	}
	return paths, nil
}

// pathBuf is Paths' enumeration buffers, reused across calls through
// pathBufs, so a call allocates only its result.
type pathBuf struct{ links, ends []int }

var pathBufs = sync.Pool{New: func() any { return new(pathBuf) }}

// AppendPaths appends the ECMP path set between two distinct hosts to
// links, one path after another as link IDs, and after each path appends
// its end offset in links to ends; the first path starts at len(links) on
// entry. For Clos builds this is every shortest up/down path; topologies
// with a custom enumerator (SetPathFn) define their own set. src==dst and
// out-of-range IDs return typed errors (ErrSameHost, ErrUnknownNode),
// never panic. On error links and ends come back unchanged.
func (t *Topology) AppendPaths(links, ends []int, src, dst int) ([]int, []int, error) {
	if src < 0 || src >= len(t.Nodes) {
		return links, ends, fmt.Errorf("fattree: %w: node %d outside [0,%d)", ErrUnknownNode, src, len(t.Nodes))
	}
	if dst < 0 || dst >= len(t.Nodes) {
		return links, ends, fmt.Errorf("fattree: %w: node %d outside [0,%d)", ErrUnknownNode, dst, len(t.Nodes))
	}
	if src == dst {
		return links, ends, fmt.Errorf("fattree: %w: host %d", ErrSameHost, src)
	}
	if t.pathFn != nil {
		return t.pathFn(links, ends, src, dst)
	}
	se, err := t.EdgeOf(src)
	if err != nil {
		return links, ends, err
	}
	de, err := t.EdgeOf(dst)
	if err != nil {
		return links, ends, err
	}
	up1, _ := t.LinkBetween(src, se)
	down1, _ := t.LinkBetween(dst, de)
	if se == de {
		links = append(links, up1.ID, down1.ID)
		return links, append(ends, len(links)), nil
	}
	n0 := len(ends)
	if t.Nodes[se].Pod == t.Nodes[de].Pod {
		// Same pod: up to any shared agg, down.
		for _, lid := range t.adjacent[se] {
			agg := t.Peer(lid, se)
			if t.Nodes[agg].Kind != KindAgg {
				continue
			}
			l2, ok := t.LinkBetween(agg, de)
			if !ok {
				continue
			}
			links = append(links, up1.ID, lid, l2.ID, down1.ID)
			ends = append(ends, len(links))
		}
		if len(ends) > n0 {
			return links, ends, nil
		}
	}
	// Cross pod (or 2-tier same "pod" semantics): edge -> agg/spine -> (core ->)
	// matching agg -> edge.
	for _, l1 := range t.adjacent[se] {
		mid := t.Peer(l1, se)
		midNode := t.Nodes[mid]
		if midNode.Kind == KindHost {
			continue
		}
		if t.Stages == 2 {
			// Two tiers: mid is a spine directly adjacent to both edges.
			if l2, ok := t.LinkBetween(mid, de); ok {
				links = append(links, up1.ID, l1, l2.ID, down1.ID)
				ends = append(ends, len(links))
			}
			continue
		}
		if midNode.Kind != KindAgg {
			continue
		}
		for _, l2 := range t.adjacent[mid] {
			core := t.Peer(l2, mid)
			if t.Nodes[core].Kind != KindCore {
				continue
			}
			for _, l3 := range t.adjacent[core] {
				agg2 := t.Peer(l3, core)
				if t.Nodes[agg2].Kind != KindAgg || t.Nodes[agg2].Pod != t.Nodes[de].Pod {
					continue
				}
				if l4, ok := t.LinkBetween(agg2, de); ok {
					links = append(links, up1.ID, l1, l2, l3, l4.ID, down1.ID)
					ends = append(ends, len(links))
				}
			}
		}
	}
	if len(ends) == n0 {
		return links, ends, fmt.Errorf("fattree: no path between hosts %d and %d", src, dst)
	}
	return links, ends, nil
}

// builder accumulates nodes and links.
type builder struct {
	t Topology
}

func (b *builder) addNode(kind NodeKind, pod, index int) int {
	id := len(b.t.Nodes)
	b.t.Nodes = append(b.t.Nodes, Node{ID: id, Kind: kind, Pod: pod, Index: index})
	b.t.adjacent = append(b.t.adjacent, nil)
	if kind == KindHost {
		b.t.hosts = append(b.t.hosts, id)
	}
	return id
}

func (b *builder) addLink(a, bID int, speed units.Bandwidth, optical bool) {
	if a > bID {
		a, bID = bID, a
	}
	id := len(b.t.Links)
	b.t.Links = append(b.t.Links, Link{ID: id, A: a, B: bID, Speed: speed, Optical: optical})
	b.t.adjacent[a] = append(b.t.adjacent[a], id)
	b.t.adjacent[bID] = append(b.t.adjacent[bID], id)
	b.t.linkAt[[2]int{a, bID}] = id
}

func newBuilder(ports, stages int) *builder {
	return &builder{t: Topology{
		Ports:  ports,
		Stages: stages,
		linkAt: make(map[[2]int]int),
	}}
}

// BuildTwoTier constructs a full two-tier (leaf-spine) fat tree from k-port
// switches: k leaves, k/2 spines, k²/2 hosts, every leaf wired to every
// spine once. All links run at the given speed.
func BuildTwoTier(ports int, speed units.Bandwidth) (*Topology, error) {
	if err := checkPorts(ports); err != nil {
		return nil, err
	}
	k := ports
	b := newBuilder(k, 2)
	leaves := make([]int, k)
	spines := make([]int, k/2)
	for i := range spines {
		spines[i] = b.addNode(KindCore, -1, i)
	}
	for i := range leaves {
		leaves[i] = b.addNode(KindEdge, i, 0)
		for h := 0; h < k/2; h++ {
			host := b.addNode(KindHost, i, h)
			b.addLink(host, leaves[i], speed, false)
		}
		for _, s := range spines {
			b.addLink(leaves[i], s, speed, true)
		}
	}
	return &b.t, nil
}

// BuildThreeTier constructs the classic three-tier fat tree from k-port
// switches: k pods of k/2 edge and k/2 aggregation switches, (k/2)² core
// switches, k³/4 hosts. Aggregation switch j of each pod connects to core
// switches [j·k/2, (j+1)·k/2).
func BuildThreeTier(ports int, speed units.Bandwidth) (*Topology, error) {
	if err := checkPorts(ports); err != nil {
		return nil, err
	}
	k := ports
	half := k / 2
	b := newBuilder(k, 3)
	cores := make([]int, half*half)
	for i := range cores {
		cores[i] = b.addNode(KindCore, -1, i)
	}
	for p := 0; p < k; p++ {
		aggs := make([]int, half)
		for j := 0; j < half; j++ {
			aggs[j] = b.addNode(KindAgg, p, j)
			for c := j * half; c < (j+1)*half; c++ {
				b.addLink(aggs[j], cores[c], speed, true)
			}
		}
		for e := 0; e < half; e++ {
			edge := b.addNode(KindEdge, p, e)
			for _, a := range aggs {
				b.addLink(edge, a, speed, true)
			}
			for h := 0; h < half; h++ {
				host := b.addNode(KindHost, p, e*half+h)
				b.addLink(host, edge, speed, false)
			}
		}
	}
	return &b.t, nil
}

// GraphBuilder assembles an explicit Topology node by node, for topology
// generators outside this package (the internal/topo zoo). It maintains
// the same adjacency and link indexes the Clos builders do, so the result
// is a first-class Topology: netsim, fault injection, and powergate all
// consume it unchanged.
type GraphBuilder struct {
	b *builder
}

// NewGraphBuilder starts an empty topology with the given switch radix and
// nominal stage count (the stage count only matters to the built-in Clos
// Paths enumeration; custom-routed topologies may pass any value ≥ 1).
func NewGraphBuilder(ports, stages int) *GraphBuilder {
	return &GraphBuilder{b: newBuilder(ports, stages)}
}

// AddNode appends a node and returns its ID. Hosts are recorded in
// Hosts() order of insertion.
func (g *GraphBuilder) AddNode(kind NodeKind, pod, index int) int {
	return g.b.addNode(kind, pod, index)
}

// AddLink joins two existing nodes with a full-duplex link.
func (g *GraphBuilder) AddLink(a, b int, speed units.Bandwidth, optical bool) error {
	n := len(g.b.t.Nodes)
	if a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("fattree: %w: link endpoints (%d,%d) outside [0,%d)", ErrUnknownNode, a, b, n)
	}
	if a == b {
		return fmt.Errorf("fattree: link (%d,%d) is a self-loop", a, b)
	}
	if _, dup := g.b.t.LinkBetween(a, b); dup {
		return fmt.Errorf("fattree: duplicate link between %d and %d", a, b)
	}
	g.b.addLink(a, b, speed, optical)
	return nil
}

// Topology returns the built graph. The builder must not be reused after.
func (g *GraphBuilder) Topology() *Topology { return &g.b.t }

// Validate checks structural invariants: port budgets respected, link
// endpoints exist, host degree 1, and (for full trees) the expected counts.
func (t *Topology) Validate() error {
	degree := make(map[int]int)
	for _, l := range t.Links {
		if l.A < 0 || l.B < 0 || l.A >= len(t.Nodes) || l.B >= len(t.Nodes) {
			return fmt.Errorf("fattree: link %d endpoint out of range", l.ID)
		}
		if l.A == l.B {
			return fmt.Errorf("fattree: link %d is a self-loop", l.ID)
		}
		degree[l.A]++
		degree[l.B]++
	}
	for _, n := range t.Nodes {
		d := degree[n.ID]
		switch {
		case n.Kind == KindHost && d != 1:
			return fmt.Errorf("fattree: host %d has degree %d, want 1", n.ID, d)
		case n.IsSwitch() && d > t.Ports:
			return fmt.Errorf("fattree: switch %d uses %d ports, radix %d", n.ID, d, t.Ports)
		}
	}
	return nil
}
