package netsim

import (
	"fmt"
	"slices"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/units"
)

// refSwitches is the reference switch walk: the switch nodes a path
// visits, in order, walking its link sequence from the source host.
func refSwitches(top *fattree.Topology, path []int, src int) []int {
	var out []int
	at := src
	for _, lid := range path {
		at = top.Peer(lid, at)
		if top.Nodes[at].IsSwitch() {
			out = append(out, at)
		}
	}
	return out
}

// checkNoAlias fails if appending to any one list changes another: the
// lists must not share spare capacity in their arena.
func checkNoAlias(t *testing.T, label string, lists [][]int) {
	t.Helper()
	want := make([][]int, len(lists))
	for i, l := range lists {
		if cap(l) != len(l) {
			t.Fatalf("%s: list %d has cap %d != len %d", label, i, cap(l), len(l))
		}
		want[i] = slices.Clone(l)
	}
	for i := range lists {
		grown := append(lists[i], -1)
		grown[len(grown)-1] = -2
	}
	for i := range lists {
		if !slices.Equal(lists[i], want[i]) {
			t.Fatalf("%s: list %d changed by an append to a neighbour: %v, want %v", label, i, lists[i], want[i])
		}
	}
}

// TestPathSetSwitchArena checks every cached path set of every zoo member
// at 16 and 24 hosts, plus the k=4 fat tree, for every host pair: each
// switch list equals the reference walk of its path, the clean-epoch alive
// set is every path index, and neither paths nor switch lists alias each
// other through their shared arenas.
func TestPathSetSwitchArena(t *testing.T) {
	tops := map[string]*fattree.Topology{"fattree-k4": smallTopo(t)}
	for _, hosts := range []int{16, 24} {
		for _, name := range topo.Names() {
			top, _, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: 100 * units.Gbps})
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", name, hosts, err)
			}
			tops[fmt.Sprintf("%s/%d", name, hosts)] = top
		}
	}
	for label, top := range tops {
		s := New(top)
		hs := top.Hosts()
		for _, src := range hs {
			for _, dst := range hs {
				if src == dst {
					continue
				}
				pair := fmt.Sprintf("%s (%d,%d)", label, src, dst)
				ps, err := s.pathsFor(src, dst)
				if err != nil {
					t.Fatalf("%s: %v", pair, err)
				}
				if len(ps.switches) != len(ps.paths) {
					t.Fatalf("%s: %d switch lists for %d paths", pair, len(ps.switches), len(ps.paths))
				}
				for i, p := range ps.paths {
					if want := refSwitches(top, p, src); !slices.Equal(ps.switches[i], want) {
						t.Fatalf("%s: switches[%d] = %v, want %v", pair, i, ps.switches[i], want)
					}
				}
				all := s.aliveFor(ps, 0, nil)
				if len(all) != len(ps.paths) {
					t.Fatalf("%s: clean alive set has %d of %d paths", pair, len(all), len(ps.paths))
				}
				for i, idx := range all {
					if idx != i {
						t.Fatalf("%s: clean alive set %v is not [0,%d)", pair, all, len(ps.paths))
					}
				}
				checkNoAlias(t, pair+" paths", ps.paths)
				checkNoAlias(t, pair+" switches", ps.switches)
			}
		}
	}
}
