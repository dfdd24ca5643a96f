package topo

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

// zooSizes samples awkward host counts on purpose: minimum, primes that
// leave partial racks/groups/rings, and a size big enough for every family
// to grow its full tier structure.
var zooSizes = []int{2, 5, 8, 24, 50}

func buildAll(t *testing.T, hosts int) map[string]*fattree.Topology {
	t.Helper()
	out := make(map[string]*fattree.Topology)
	for _, name := range Names() {
		topo, d, err := Build(name, Spec{Hosts: hosts, LinkSpeed: 100 * units.Gbps})
		if err != nil {
			t.Fatalf("Build(%s, %d hosts): %v", name, hosts, err)
		}
		if d.Name != name || d.Hosts != hosts {
			t.Fatalf("%s/%d: design identity %q/%d", name, hosts, d.Name, d.Hosts)
		}
		if d.Switches == 0 || d.Switches != len(topo.SwitchIDs()) {
			t.Fatalf("%s/%d: design switches %d, graph %d", name, hosts, d.Switches, len(topo.SwitchIDs()))
		}
		optical := 0
		for _, l := range topo.Links {
			if l.Optical {
				optical++
			}
		}
		if d.Links != optical {
			t.Fatalf("%s/%d: design links %d, graph %d", name, hosts, d.Links, optical)
		}
		if d.Bisection <= 0 {
			t.Fatalf("%s/%d: bisection %v not positive", name, hosts, d.Bisection)
		}
		if len(d.Params) == 0 {
			t.Fatalf("%s/%d: sizer reported no params", name, hosts)
		}
		out[name] = topo
	}
	return out
}

// TestZooBuild is the core property suite: every generator, at every
// sampled size, produces a validated, connected graph with the exact host
// count and a design that matches the built instance (Build enforces the
// contracts; this test makes each generator walk through them).
func TestZooBuild(t *testing.T) {
	if len(Names()) < 5 {
		t.Fatalf("zoo has %d generators, want at least 5: %v", len(Names()), Names())
	}
	for _, hosts := range zooSizes {
		buildAll(t, hosts)
	}
}

// pathString canonicalizes one pair's path set for comparison.
func pathString(paths [][]int) string {
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%v;", p)
	}
	return b.String()
}

// checkWalk verifies a path is a loop-free link walk from src to dst.
func checkWalk(topo *fattree.Topology, src, dst int, path []int) error {
	if len(path) == 0 {
		return fmt.Errorf("empty path")
	}
	at := src
	seen := map[int]bool{src: true}
	for _, lid := range path {
		if lid < 0 || lid >= len(topo.Links) {
			return fmt.Errorf("link %d out of range", lid)
		}
		l := topo.Links[lid]
		switch at {
		case l.A:
			at = l.B
		case l.B:
			at = l.A
		default:
			return fmt.Errorf("link %d does not touch node %d", lid, at)
		}
		if seen[at] {
			return fmt.Errorf("node %d revisited", at)
		}
		seen[at] = true
	}
	if at != dst {
		return fmt.Errorf("walk ends at %d, want %d", at, dst)
	}
	return nil
}

// checkPathArena verifies a path set's shape: shortest first, and every
// path cut from its shared arena with cap == len, so appending to one path
// leaves every other path of the set unchanged.
func checkPathArena(paths [][]int) error {
	want := make([][]int, len(paths))
	for i, p := range paths {
		if cap(p) != len(p) {
			return fmt.Errorf("path %d has cap %d != len %d", i, cap(p), len(p))
		}
		if i > 0 && len(p) < len(paths[i-1]) {
			return fmt.Errorf("path %d shorter than path %d", i, i-1)
		}
		want[i] = slices.Clone(p)
	}
	for i := range paths {
		grown := append(paths[i], -1)
		grown[len(grown)-1] = -2
	}
	for i := range paths {
		if !slices.Equal(paths[i], want[i]) {
			return fmt.Errorf("path %d changed by an append to a neighbour: %v, want %v", i, paths[i], want[i])
		}
	}
	return nil
}

// TestZooPaths checks every host pair of every generator has at least one
// valid loop-free path, in both directions, and that each path set comes
// back shortest first from an exact arena whose paths do not alias.
func TestZooPaths(t *testing.T) {
	for _, hosts := range []int{5, 16, 24} {
		for name, topo := range buildAll(t, hosts) {
			hs := topo.Hosts()
			for i := 0; i < len(hs); i++ {
				for j := 0; j < len(hs); j++ {
					if i == j {
						continue
					}
					paths, err := topo.Paths(hs[i], hs[j])
					if err != nil {
						t.Fatalf("%s/%d: Paths(%d,%d): %v", name, hosts, hs[i], hs[j], err)
					}
					if len(paths) == 0 {
						t.Fatalf("%s/%d: no paths between %d and %d", name, hosts, hs[i], hs[j])
					}
					for _, p := range paths {
						if err := checkWalk(topo, hs[i], hs[j], p); err != nil {
							t.Fatalf("%s/%d: path %v between %d and %d: %v", name, hosts, p, hs[i], hs[j], err)
						}
					}
					if err := checkPathArena(paths); err != nil {
						t.Fatalf("%s/%d: paths between %d and %d: %v", name, hosts, hs[i], hs[j], err)
					}
				}
			}
		}
	}
}

// TestZooTypedErrors checks the zoo inherits fattree's typed path errors.
func TestZooTypedErrors(t *testing.T) {
	for name, topo := range buildAll(t, 8) {
		h := topo.Hosts()[0]
		if _, err := topo.Paths(h, h); !errors.Is(err, fattree.ErrSameHost) {
			t.Fatalf("%s: Paths(h,h) = %v, want ErrSameHost", name, err)
		}
		if _, err := topo.Paths(h, len(topo.Nodes)+3); !errors.Is(err, fattree.ErrUnknownNode) {
			t.Fatalf("%s: Paths(h, oob) = %v, want ErrUnknownNode", name, err)
		}
	}
}

// TestZooDeterministic builds each topology twice and compares graphs and
// full path enumerations byte for byte.
func TestZooDeterministic(t *testing.T) {
	for _, name := range Names() {
		spec := Spec{Hosts: 24, LinkSpeed: 100 * units.Gbps}
		t1, d1, err := Build(name, spec)
		if err != nil {
			t.Fatalf("Build(%s) #1: %v", name, err)
		}
		t2, d2, err := Build(name, spec)
		if err != nil {
			t.Fatalf("Build(%s) #2: %v", name, err)
		}
		if g1, g2 := fmt.Sprintf("%v|%v", t1.Nodes, t1.Links), fmt.Sprintf("%v|%v", t2.Nodes, t2.Links); g1 != g2 {
			t.Fatalf("%s: graphs differ between builds", name)
		}
		if s1, s2 := fmt.Sprintf("%+v", d1), fmt.Sprintf("%+v", d2); s1 != s2 {
			t.Fatalf("%s: designs differ between builds:\n%s\n%s", name, s1, s2)
		}
		hs := t1.Hosts()
		for i := 0; i < len(hs); i++ {
			for j := 0; j < len(hs); j++ {
				if i == j {
					continue
				}
				p1, err := t1.Paths(hs[i], hs[j])
				if err != nil {
					t.Fatalf("%s: Paths #1 (%d,%d): %v", name, hs[i], hs[j], err)
				}
				p2, err := t2.Paths(hs[i], hs[j])
				if err != nil {
					t.Fatalf("%s: Paths #2 (%d,%d): %v", name, hs[i], hs[j], err)
				}
				if pathString(p1) != pathString(p2) {
					t.Fatalf("%s: path sets for (%d,%d) differ:\n%s\n%s", name, hs[i], hs[j], pathString(p1), pathString(p2))
				}
			}
		}
	}
}

// TestZooPathsConcurrent enumerates concurrently against a shared topology
// and checks results match the serial enumeration — the property
// concurrent simulations over one shared topology lean on. The concurrent
// pass runs on a second, cold build, so its callers race to fill the
// per-destination distance fields.
func TestZooPathsConcurrent(t *testing.T) {
	for name, topo := range buildAll(t, 24) {
		cold, _, err := Build(name, Spec{Hosts: 24, LinkSpeed: 100 * units.Gbps})
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		hs := topo.Hosts()
		type pair struct{ src, dst int }
		var pairs []pair
		serial := map[pair]string{}
		for i := 0; i < len(hs); i++ {
			for j := 0; j < len(hs); j++ {
				if i == j {
					continue
				}
				p := pair{hs[i], hs[j]}
				paths, err := topo.Paths(p.src, p.dst)
				if err != nil {
					t.Fatalf("%s: serial Paths(%d,%d): %v", name, p.src, p.dst, err)
				}
				pairs = append(pairs, p)
				serial[p] = pathString(paths)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(pairs))
		for idx, p := range pairs {
			wg.Add(1)
			go func(idx int, p pair) {
				defer wg.Done()
				paths, err := cold.Paths(p.src, p.dst)
				if err != nil {
					errs[idx] = err
					return
				}
				if got := pathString(paths); got != serial[p] {
					errs[idx] = fmt.Errorf("concurrent paths for %v differ: %s vs %s", p, got, serial[p])
				}
			}(idx, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestBuildRejects covers the zoo-level input contract.
func TestBuildRejects(t *testing.T) {
	if _, _, err := Build("mobius-strip", Spec{Hosts: 8, LinkSpeed: 100 * units.Gbps}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, _, err := Build("fattree", Spec{Hosts: 1, LinkSpeed: 100 * units.Gbps}); err == nil {
		t.Fatal("1-host spec accepted")
	}
	if _, _, err := Build("fattree", Spec{Hosts: 8}); err == nil {
		t.Fatal("zero link speed accepted")
	}
}

// TestCensus spot-checks the per-tier breakdown on the reference Clos.
func TestCensus(t *testing.T) {
	topo, _, err := Build("fattree", Spec{Hosts: 16, LinkSpeed: 100 * units.Gbps})
	if err != nil {
		t.Fatal(err)
	}
	rep := Census(topo)
	tiers := map[string]int{}
	for _, tc := range rep.Tiers {
		tiers[tc.Kind] = tc.Nodes
	}
	if tiers["host"] != 16 {
		t.Fatalf("census hosts = %d, want 16", tiers["host"])
	}
	for _, kind := range []string{"edge", "agg", "core"} {
		if tiers[kind] == 0 {
			t.Fatalf("census missing %s tier: %+v", kind, rep.Tiers)
		}
	}
	var hostLinks int
	for _, lc := range rep.Links {
		if lc.Between == "host-edge" {
			if lc.Optical {
				t.Fatal("host-edge links marked optical")
			}
			hostLinks += lc.Count
		}
	}
	if hostLinks != 16 {
		t.Fatalf("census host-edge links = %d, want 16", hostLinks)
	}
}
