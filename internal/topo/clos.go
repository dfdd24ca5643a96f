package topo

import (
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

func init() {
	Register(closGen{})
	Register(oversubGen{})
}

// closGen is the zoo's reference design: a three-tier folded Clos trimmed
// to the requested host count. The sizer picks the smallest even radix k
// with k³/4 ≥ hosts, builds the full core layer and only as many pods as
// needed; every built pod keeps its full aggregation tier so the native
// Clos path enumeration stays valid, and the last edge switch takes the
// host remainder. Full bisection bandwidth by construction.
type closGen struct{}

func (closGen) Name() string { return "fattree" }

// closRadix returns the smallest even k ≥ 4 with k³/4 ≥ hosts.
func closRadix(hosts int) int {
	for k := 4; ; k += 2 {
		if k*k*k/4 >= hosts {
			return k
		}
	}
}

func (closGen) Build(spec Spec) (*fattree.Topology, Design, error) {
	k := closRadix(spec.Hosts)
	half := k / 2
	b := fattree.NewGraphBuilder(k, 3)
	cores := make([]int, half*half)
	for i := range cores {
		cores[i] = b.AddNode(fattree.KindCore, -1, i)
	}
	left := spec.Hosts
	pods := 0
	for p := 0; p < k && left > 0; p++ {
		pods++
		aggs := make([]int, half)
		for j := 0; j < half; j++ {
			aggs[j] = b.AddNode(fattree.KindAgg, p, j)
			for c := j * half; c < (j+1)*half; c++ {
				if err := b.AddLink(aggs[j], cores[c], spec.LinkSpeed, true); err != nil {
					return nil, Design{}, err
				}
			}
		}
		for e := 0; e < half && left > 0; e++ {
			edge := b.AddNode(fattree.KindEdge, p, e)
			for _, a := range aggs {
				if err := b.AddLink(edge, a, spec.LinkSpeed, true); err != nil {
					return nil, Design{}, err
				}
			}
			for h := 0; h < half && left > 0; h++ {
				host := b.AddNode(fattree.KindHost, p, e*half+h)
				if err := b.AddLink(host, edge, spec.LinkSpeed, false); err != nil {
					return nil, Design{}, err
				}
				left--
			}
		}
	}
	t := b.Topology()
	// Native Clos enumeration applies: Pod/Kind semantics are intact.
	d := Design{
		// Every pod keeps full uplink capacity, so a balanced host cut is
		// limited only by the hosts' own access links.
		Bisection: spec.LinkSpeed * units.Bandwidth(spec.Hosts/2),
		Params:    map[string]int{"radix": k, "pods": pods},
	}
	return t, d, nil
}

// oversubGen is a two-tier leaf-spine with a configurable oversubscription
// taper: each leaf serves oversubHosts hosts through oversubHosts/taper
// spine uplinks. The cheap end of the Clos family — fewer switches and
// links, a lower idle floor, and a bisection divided by the taper.
type oversubGen struct{}

// Fixed design constants: 8 hosts per leaf, 4:1 taper → 2 spines.
const (
	oversubHosts = 8
	oversubTaper = 4
)

func (oversubGen) Name() string { return "clos-oversub" }

func (oversubGen) Build(spec Spec) (*fattree.Topology, Design, error) {
	leaves := (spec.Hosts + oversubHosts - 1) / oversubHosts
	spines := oversubHosts / oversubTaper
	if spines < 1 {
		spines = 1
	}
	ports := oversubHosts + spines
	if leaves > ports {
		ports = leaves // spine radix dominates on big builds
	}
	b := fattree.NewGraphBuilder(ports, 2)
	spineIDs := make([]int, spines)
	for i := range spineIDs {
		spineIDs[i] = b.AddNode(fattree.KindCore, -1, i)
	}
	left := spec.Hosts
	for l := 0; l < leaves; l++ {
		leaf := b.AddNode(fattree.KindEdge, l, 0)
		for _, sp := range spineIDs {
			if err := b.AddLink(leaf, sp, spec.LinkSpeed, true); err != nil {
				return nil, Design{}, err
			}
		}
		for h := 0; h < oversubHosts && left > 0; h++ {
			host := b.AddNode(fattree.KindHost, l, h)
			if err := b.AddLink(host, leaf, spec.LinkSpeed, false); err != nil {
				return nil, Design{}, err
			}
			left--
		}
	}
	t := b.Topology()
	// Native two-tier enumeration applies (leaf → spine → leaf).
	d := Design{
		// A balanced leaf cut crosses half the leaves' uplinks.
		Bisection: spec.LinkSpeed * units.Bandwidth(leaves*spines/2),
		Params:    map[string]int{"leaves": leaves, "spines": spines, "taper": oversubTaper, "hostsperleaf": oversubHosts},
	}
	return t, d, nil
}
