package fattree

import (
	"errors"
	"slices"
	"testing"

	"netpowerprop/internal/units"
)

func TestBuildTwoTierCounts(t *testing.T) {
	top, err := BuildTwoTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 leaves, 2 spines, 8 hosts; links: 8 host + 4*2 leaf-spine.
	if got := len(top.Hosts()); got != 8 {
		t.Errorf("hosts = %d, want 8", got)
	}
	if got := len(top.SwitchIDs()); got != 6 {
		t.Errorf("switches = %d, want 6", got)
	}
	if got := len(top.Links); got != 16 {
		t.Errorf("links = %d, want 16", got)
	}
	optical := 0
	for _, l := range top.Links {
		if l.Optical {
			optical++
		}
	}
	if optical != 8 {
		t.Errorf("optical links = %d, want 8 (leaf-spine only)", optical)
	}
	if err := top.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Matches the sizing formula at full capacity.
	if sw, _ := StageSwitches(4, 2); sw != len(top.SwitchIDs()) {
		t.Errorf("topology switches %d disagree with formula %d", len(top.SwitchIDs()), sw)
	}
	if ln, _ := StageLinks(4, 2); ln != optical {
		t.Errorf("topology optical links %d disagree with formula %d", optical, ln)
	}
}

func TestBuildThreeTierCounts(t *testing.T) {
	top, err := BuildThreeTier(4, 400*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 16 hosts, 20 switches (8 edge + 8 agg + 4 core), 32 optical links.
	if got := len(top.Hosts()); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	if got := len(top.SwitchIDs()); got != 20 {
		t.Errorf("switches = %d, want 20", got)
	}
	optical := 0
	for _, l := range top.Links {
		if l.Optical {
			optical++
		}
	}
	if optical != 32 {
		t.Errorf("optical links = %d, want 32", optical)
	}
	if err := top.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if sw, _ := StageSwitches(4, 3); sw != len(top.SwitchIDs()) {
		t.Errorf("topology switches %d disagree with formula %d", len(top.SwitchIDs()), sw)
	}
	if ln, _ := StageLinks(4, 3); ln != optical {
		t.Errorf("topology optical links %d disagree with formula %d", optical, ln)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildTwoTier(3, 100*units.Gbps); err == nil {
		t.Error("odd radix should fail")
	}
	if _, err := BuildThreeTier(0, 100*units.Gbps); err == nil {
		t.Error("zero radix should fail")
	}
}

func TestEdgeOf(t *testing.T) {
	top, _ := BuildThreeTier(4, 400*units.Gbps)
	for _, h := range top.Hosts() {
		e, err := top.EdgeOf(h)
		if err != nil {
			t.Fatalf("EdgeOf(%d): %v", h, err)
		}
		if top.Nodes[e].Kind != KindEdge {
			t.Errorf("EdgeOf(%d) = node kind %v", h, top.Nodes[e].Kind)
		}
		if top.Nodes[e].Pod != top.Nodes[h].Pod {
			t.Errorf("host %d pod %d but edge pod %d", h, top.Nodes[h].Pod, top.Nodes[e].Pod)
		}
	}
	sw := top.SwitchIDs()[0]
	if _, err := top.EdgeOf(sw); err == nil {
		t.Error("EdgeOf(switch) should fail")
	}
}

func TestPathsSameEdge(t *testing.T) {
	top, _ := BuildThreeTier(4, 400*units.Gbps)
	// Hosts under the same edge: exactly one 2-link path.
	hosts := top.Hosts()
	var a, b int = -1, -1
	for _, h1 := range hosts {
		e1, _ := top.EdgeOf(h1)
		for _, h2 := range hosts {
			if h1 == h2 {
				continue
			}
			if e2, _ := top.EdgeOf(h2); e1 == e2 {
				a, b = h1, h2
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	paths, err := top.Paths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Errorf("same-edge paths = %v, want one 2-hop path", paths)
	}
}

func TestPathsSamePod(t *testing.T) {
	top, _ := BuildThreeTier(4, 400*units.Gbps)
	// Find two hosts in the same pod but different edges.
	var a, b int = -1, -1
	for _, h1 := range top.Hosts() {
		e1, _ := top.EdgeOf(h1)
		for _, h2 := range top.Hosts() {
			if h1 == h2 || top.Nodes[h1].Pod != top.Nodes[h2].Pod {
				continue
			}
			if e2, _ := top.EdgeOf(h2); e1 != e2 {
				a, b = h1, h2
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	paths, err := top.Paths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 2 aggs per pod -> 2 paths of 4 links.
	if len(paths) != 2 {
		t.Errorf("same-pod path count = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Errorf("same-pod path length = %d, want 4", len(p))
		}
	}
}

func TestPathsCrossPod(t *testing.T) {
	top, _ := BuildThreeTier(4, 400*units.Gbps)
	var a, b int = -1, -1
	for _, h1 := range top.Hosts() {
		for _, h2 := range top.Hosts() {
			if top.Nodes[h1].Pod != top.Nodes[h2].Pod {
				a, b = h1, h2
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	paths, err := top.Paths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// k=4 fat tree: 4 core switches -> 4 distinct cross-pod paths of 6 links.
	if len(paths) != 4 {
		t.Errorf("cross-pod path count = %d, want 4", len(paths))
	}
	for _, p := range paths {
		if len(p) != 6 {
			t.Errorf("cross-pod path length = %d, want 6", len(p))
		}
		// Path must be connected: consecutive links share a node.
		prev := top.Links[p[0]]
		for i := 1; i < len(p); i++ {
			cur := top.Links[p[i]]
			if prev.A != cur.A && prev.A != cur.B && prev.B != cur.A && prev.B != cur.B {
				t.Errorf("path %v disconnected at hop %d", p, i)
			}
			prev = cur
		}
	}
}

func TestPathsTwoTier(t *testing.T) {
	top, _ := BuildTwoTier(4, 100*units.Gbps)
	hosts := top.Hosts()
	// Hosts on different leaves: k/2 = 2 paths of 4 links.
	var a, b int = -1, -1
	for _, h1 := range hosts {
		e1, _ := top.EdgeOf(h1)
		for _, h2 := range hosts {
			if h1 == h2 {
				continue
			}
			if e2, _ := top.EdgeOf(h2); e1 != e2 {
				a, b = h1, h2
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	paths, err := top.Paths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Errorf("two-tier path count = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Errorf("two-tier path length = %d, want 4", len(p))
		}
	}
}

func TestPathsErrors(t *testing.T) {
	top, _ := BuildTwoTier(4, 100*units.Gbps)
	h := top.Hosts()[0]
	if _, err := top.Paths(h, h); err == nil {
		t.Error("same-host path should fail")
	}
	sw := top.SwitchIDs()[0]
	if _, err := top.Paths(sw, h); err == nil {
		t.Error("switch source should fail")
	}
}

func TestLinkHelpers(t *testing.T) {
	top, _ := BuildTwoTier(4, 100*units.Gbps)
	h := top.Hosts()[0]
	e, _ := top.EdgeOf(h)
	l, ok := top.LinkBetween(h, e)
	if !ok {
		t.Fatal("host-edge link missing")
	}
	// Order of arguments must not matter.
	l2, ok := top.LinkBetween(e, h)
	if !ok || l2.ID != l.ID {
		t.Error("LinkBetween not symmetric")
	}
	if top.Peer(l.ID, h) != e || top.Peer(l.ID, e) != h {
		t.Error("Peer broken")
	}
	if _, ok := top.LinkBetween(h, top.Hosts()[1]); ok {
		t.Error("hosts are not directly linked")
	}
	if got := top.LinksOf(h); len(got) != 1 {
		t.Errorf("host degree = %d, want 1", len(got))
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	top, _ := BuildTwoTier(4, 100*units.Gbps)
	bad := *top
	bad.Links = append([]Link{}, top.Links...)
	bad.Links[0].B = bad.Links[0].A // self loop
	if err := bad.Validate(); err == nil {
		t.Error("self-loop should fail validation")
	}
	bad.Links[0] = Link{ID: 0, A: 0, B: 10_000}
	if err := bad.Validate(); err == nil {
		t.Error("dangling endpoint should fail validation")
	}
}

func TestNodeKindString(t *testing.T) {
	want := map[NodeKind]string{KindHost: "host", KindEdge: "edge", KindAgg: "agg", KindCore: "core"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("NodeKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if NodeKind(9).String() != "NodeKind(9)" {
		t.Error("unknown kind formatting broken")
	}
}

// Regression: path queries with degenerate arguments must return typed
// errors, never panic — callers outside the package probe topologies with
// arbitrary IDs (the zoo scenario iterates host pairs mechanically).
func TestPathsTypedErrors(t *testing.T) {
	top, _ := BuildTwoTier(4, 100*units.Gbps)
	h := top.Hosts()[0]
	if _, err := top.Paths(h, h); !errors.Is(err, ErrSameHost) {
		t.Errorf("same-host error = %v, want ErrSameHost", err)
	}
	for _, bad := range []int{-1, len(top.Nodes), len(top.Nodes) + 100} {
		if _, err := top.Paths(bad, h); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Paths(%d, h) error = %v, want ErrUnknownNode", bad, err)
		}
		if _, err := top.Paths(h, bad); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Paths(h, %d) error = %v, want ErrUnknownNode", bad, err)
		}
		if _, err := top.EdgeOf(bad); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("EdgeOf(%d) error = %v, want ErrUnknownNode", bad, err)
		}
	}
}

// GraphBuilder must produce topologies equivalent to the package's own
// builders: adjacency indexed, hosts in insertion order, and a custom
// path enumerator honored by Paths.
func TestGraphBuilder(t *testing.T) {
	g := NewGraphBuilder(4, 2)
	sw := g.AddNode(KindEdge, 0, 0)
	h1 := g.AddNode(KindHost, 0, 0)
	h2 := g.AddNode(KindHost, 0, 1)
	if err := g.AddLink(h1, sw, 100*units.Gbps, false); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(h2, sw, 100*units.Gbps, false); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(h1, sw, 100*units.Gbps, false); err == nil {
		t.Error("duplicate link should fail")
	}
	if err := g.AddLink(sw, sw, 100*units.Gbps, false); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddLink(sw, 99, 100*units.Gbps, false); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("out-of-range endpoint error = %v, want ErrUnknownNode", err)
	}
	top := g.Topology()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := top.Hosts(); len(got) != 2 || got[0] != h1 || got[1] != h2 {
		t.Errorf("hosts = %v, want [%d %d]", got, h1, h2)
	}
	if e, err := top.EdgeOf(h1); err != nil || e != sw {
		t.Errorf("EdgeOf = %d, %v", e, err)
	}
	// Built-in 2-tier enumeration handles the shared-edge pair...
	paths, err := top.Paths(h1, h2)
	if err != nil || len(paths) != 1 {
		t.Fatalf("paths = %v, %v", paths, err)
	}
	// ...and a custom enumerator takes over when installed.
	called := false
	top.SetPathFn(func(links, ends []int, src, dst int) ([]int, []int, error) {
		called = true
		links = append(links, 0, 1)
		return links, append(ends, len(links)), nil
	})
	if got, err := top.Paths(h1, h2); err != nil || !called || len(got) != 1 || !slices.Equal(got[0], []int{0, 1}) {
		t.Errorf("custom enumerator not used (paths %v, err %v)", got, err)
	}
	// Degenerate queries are rejected before the enumerator runs.
	called = false
	if _, err := top.Paths(h1, h1); !errors.Is(err, ErrSameHost) || called {
		t.Errorf("same-host guard bypassed (err %v, called %v)", err, called)
	}
}
