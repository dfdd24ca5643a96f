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
func refSwitches(top *fattree.Topology, path []int, src int) []int32 {
	var out []int32
	at := src
	for _, lid := range path {
		at = top.Peer(lid, at)
		if top.Nodes[at].IsSwitch() {
			out = append(out, int32(at))
		}
	}
	return out
}

// checkNoAlias fails if appending to any one list changes another: the
// lists must not share spare capacity in their arena.
func checkNoAlias[T int | int32](t *testing.T, label string, lists [][]T) {
	t.Helper()
	want := make([][]T, len(lists))
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
// at 16 and 24 hosts, plus the k=4 fat tree, for every host pair, on one
// Sim whose path table moves from topology to topology: each set's paths
// equal the topology's Paths, each switch list equals the reference walk
// of its path, the clean-epoch alive set is every path index, and neither
// paths nor switch lists alias each other through the table's arenas.
func TestPathSetSwitchArena(t *testing.T) {
	type member struct {
		label string
		top   *fattree.Topology
	}
	tops := []member{{"fattree-k4", smallTopo(t)}}
	for _, hosts := range []int{16, 24} {
		for _, name := range topo.Names() {
			top, _, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: 100 * units.Gbps})
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", name, hosts, err)
			}
			tops = append(tops, member{fmt.Sprintf("%s/%d", name, hosts), top})
		}
	}
	s := new(Sim)
	for _, m := range tops {
		label, top := m.label, m.top
		s.warm.usePaths(top)
		s.Top = top
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
				want, err := top.Paths(src, dst)
				if err != nil {
					t.Fatalf("%s: Paths: %v", pair, err)
				}
				if int(ps.n) != len(want) {
					t.Fatalf("%s: %d cached paths, Paths has %d", pair, ps.n, len(want))
				}
				want32 := links32(want)
				paths := make([][]int32, ps.n)
				switches := make([][]int32, ps.n)
				for i := range paths {
					paths[i] = s.warm.paths.path(ps, i)
					switches[i] = s.warm.paths.switchesOf(ps, i)
					if !slices.Equal(paths[i], want32[i]) {
						t.Fatalf("%s: path %d = %v, Paths has %v", pair, i, paths[i], want[i])
					}
					if ref := refSwitches(top, want[i], src); !slices.Equal(switches[i], ref) {
						t.Fatalf("%s: switches[%d] = %v, want %v", pair, i, switches[i], ref)
					}
				}
				all := s.aliveFor(ps, 0, nil)
				if len(all) != int(ps.n) {
					t.Fatalf("%s: clean alive set has %d of %d paths", pair, len(all), ps.n)
				}
				for i, idx := range all {
					if idx != i {
						t.Fatalf("%s: clean alive set %v is not [0,%d)", pair, all, ps.n)
					}
				}
				checkNoAlias(t, pair+" paths", paths)
				checkNoAlias(t, pair+" switches", switches)
			}
		}
	}
}
