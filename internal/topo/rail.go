package topo

import (
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

func init() {
	Register(railGen{optimized: false})
	Register(railGen{optimized: true})
}

// Fixed rail design constants: 8-host accelerator domains, 4 rails in the
// rail-only build, 8 rails plus 4 cores in the rail-optimized one.
const (
	railDomain    = 8
	railOnlyRails = 4
	railOptRails  = 8
	railOptCores  = 4
)

// railGen builds the AI-cluster rail fabrics from §3: hosts grouped into
// accelerator domains of railDomain hosts behind one domain leaf, and the
// leaves cross-connected through a flat tier of rail switches. The
// rail-only variant stops there — a 2:1 oversubscribed, two-tier fabric
// with the zoo's lowest idle floor. The rail-optimized variant doubles the
// rail tier and adds a small core tier above it, restoring full leaf-level
// bisection and giving fault rerouting a second hierarchy level to steer
// through.
type railGen struct {
	optimized bool
}

func (g railGen) Name() string {
	if g.optimized {
		return "railopt"
	}
	return "railonly"
}

func (g railGen) Build(spec Spec) (*fattree.Topology, Design, error) {
	domains := (spec.Hosts + railDomain - 1) / railDomain
	rails := railOnlyRails
	if g.optimized {
		rails = railOptRails
	}
	ports := railDomain + rails // leaf radix
	if domains > ports {
		ports = domains // rail radix dominates on big builds
	}
	if g.optimized && rails+railOptCores > ports {
		ports = rails + railOptCores
	}
	stages := 2
	if g.optimized {
		stages = 3
	}
	b := fattree.NewGraphBuilder(ports, stages)
	railIDs := make([]int, rails)
	for i := range railIDs {
		railIDs[i] = b.AddNode(fattree.KindAgg, -1, i)
	}
	var coreIDs []int
	if g.optimized {
		coreIDs = make([]int, railOptCores)
		for i := range coreIDs {
			coreIDs[i] = b.AddNode(fattree.KindCore, -1, i)
		}
		for _, r := range railIDs {
			for _, c := range coreIDs {
				if err := b.AddLink(r, c, spec.LinkSpeed, true); err != nil {
					return nil, Design{}, err
				}
			}
		}
	}
	left := spec.Hosts
	for d := 0; d < domains; d++ {
		leaf := b.AddNode(fattree.KindEdge, d, 0)
		for _, r := range railIDs {
			if err := b.AddLink(leaf, r, spec.LinkSpeed, true); err != nil {
				return nil, Design{}, err
			}
		}
		for h := 0; h < railDomain && left > 0; h++ {
			host := b.AddNode(fattree.KindHost, d, h)
			if err := b.AddLink(host, leaf, spec.LinkSpeed, false); err != nil {
				return nil, Design{}, err
			}
			left--
		}
	}
	t := b.Topology()
	params := map[string]int{"domains": domains, "rails": rails, "hostsperdomain": railDomain}
	if g.optimized {
		// Rail-optimized routes leaf → rail → leaf minimally; slack 2 admits
		// the leaf → rail → core → rail → leaf detours as fault spares.
		InstallPaths(t, 2)
		params["cores"] = railOptCores
	}
	// Rail-only keeps native two-tier enumeration: the Stages==2 branch of
	// fattree's Paths only needs adjacency, which KindAgg rails satisfy.
	d := Design{
		// A balanced domain cut crosses half the leaves' rail uplinks.
		Bisection: spec.LinkSpeed * units.Bandwidth(domains*rails/2),
		Params:    params,
	}
	return t, d, nil
}
