package topo

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

// installedSlack is the slack every zoo member with an installed
// enumerator passes to InstallPaths; the other members keep fattree's
// native Clos rules.
var installedSlack = map[string]int{
	"dragonfly": 2,
	"ocsleaf":   0,
	"railopt":   2,
	"torus2d":   2,
	"torus3d":   2,
}

// enumerate is the reference enumerator: a fresh BFS distance field from
// dst for every pair, read through Topology.Peer and Nodes[p].Kind, then
// the same bounded DFS in link-ID order, collected into per-path slices
// and sorted shortest first with a stable sort.
func enumerate(t *fattree.Topology, src, dst, slack int) ([][]int, error) {
	dist := make([]int, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, lid := range t.LinksOf(v) {
			if p := t.Peer(lid, v); dist[p] < 0 {
				dist[p] = dist[v] + 1
				queue = append(queue, p)
			}
		}
	}
	if dist[src] < 0 {
		return nil, fmt.Errorf("no path between hosts %d and %d", src, dst)
	}
	budget := dist[src] + slack
	onPath := make([]bool, len(t.Nodes))
	var paths [][]int
	var cur []int
	var dfs func(v, spent int)
	dfs = func(v, spent int) {
		for _, lid := range t.LinksOf(v) {
			p := t.Peer(lid, v)
			if onPath[p] || dist[p] < 0 || spent+1+dist[p] > budget {
				continue
			}
			if t.Nodes[p].Kind == fattree.KindHost && p != dst {
				continue
			}
			cur = append(cur, lid)
			if p == dst {
				paths = append(paths, slices.Clone(cur))
			} else {
				onPath[p] = true
				dfs(p, spent+1)
				onPath[p] = false
			}
			cur = cur[:len(cur)-1]
			if len(paths) >= maxPaths {
				return
			}
		}
	}
	onPath[src] = true
	dfs(src, 0)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no path between hosts %d and %d", src, dst)
	}
	slices.SortStableFunc(paths, func(a, b []int) int { return len(a) - len(b) })
	return paths, nil
}

// TestEnumeratorMatchesReference compares the installed enumerator, with
// its shared per-destination distance fields, against the per-pair BFS
// reference on every ordered host pair of every member that installs it,
// at 16, 24 and 32 hosts: same paths, same order.
func TestEnumeratorMatchesReference(t *testing.T) {
	for _, hosts := range []int{16, 24, 32} {
		for name, slack := range installedSlack {
			top, _, err := Build(name, Spec{Hosts: hosts, LinkSpeed: 100 * units.Gbps})
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", name, hosts, err)
			}
			for _, src := range top.Hosts() {
				for _, dst := range top.Hosts() {
					if src == dst {
						continue
					}
					want, err := enumerate(top, src, dst, slack)
					if err != nil {
						t.Fatalf("%s/%d: reference (%d,%d): %v", name, hosts, src, dst, err)
					}
					got, err := top.Paths(src, dst)
					if err != nil {
						t.Fatalf("%s/%d: Paths(%d,%d): %v", name, hosts, src, dst, err)
					}
					if pathString(got) != pathString(want) {
						t.Fatalf("%s/%d: paths (%d,%d):\n%s\nreference:\n%s", name, hosts, src, dst, pathString(got), pathString(want))
					}
				}
			}
		}
	}
}

// TestAppendPathsOntoPrefix appends every pair's path set of every zoo
// member — native Clos rules and installed enumerators alike — onto
// buffers that already hold other paths, as the simulator's path table
// does. The prefix must be left as it was and the appended paths must be
// Paths's; a failing call must hand both buffers back unchanged.
func TestAppendPathsOntoPrefix(t *testing.T) {
	for name, top := range buildAll(t, 16) {
		hs := top.Hosts()
		links := []int{-1, -2, -3}
		ends := []int{1, 3}
		for _, src := range hs {
			for _, dst := range hs {
				if src == dst {
					continue
				}
				prefixLinks, prefixEnds := slices.Clone(links), slices.Clone(ends)
				var err error
				links, ends, err = top.AppendPaths(links, ends, src, dst)
				if err != nil {
					t.Fatalf("%s: AppendPaths(%d,%d): %v", name, src, dst, err)
				}
				if !slices.Equal(links[:len(prefixLinks)], prefixLinks) || !slices.Equal(ends[:len(prefixEnds)], prefixEnds) {
					t.Fatalf("%s: AppendPaths(%d,%d) rewrote the prefix", name, src, dst)
				}
				var got [][]int
				start := len(prefixLinks)
				for _, end := range ends[len(prefixEnds):] {
					got = append(got, links[start:end])
					start = end
				}
				if start != len(links) {
					t.Fatalf("%s: AppendPaths(%d,%d): last end %d, links hold %d", name, src, dst, start, len(links))
				}
				want, err := top.Paths(src, dst)
				if err != nil {
					t.Fatalf("%s: Paths(%d,%d): %v", name, src, dst, err)
				}
				if pathString(got) != pathString(want) {
					t.Fatalf("%s: appended paths (%d,%d):\n%s\nPaths:\n%s", name, src, dst, pathString(got), pathString(want))
				}
			}
		}
		nl, ne := len(links), len(ends)
		links, ends, err := top.AppendPaths(links, ends, hs[0], hs[0])
		if !errors.Is(err, fattree.ErrSameHost) || len(links) != nl || len(ends) != ne {
			t.Fatalf("%s: AppendPaths(h,h) = %d links, %d ends, %v; want the buffers unchanged and ErrSameHost", name, len(links)-nl, len(ends)-ne, err)
		}
	}
}
