package topo

import (
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

func init() {
	Register(dragonflyGen{})
}

// dragonflyGen builds a balanced dragonfly (Kim et al.'s a = 2p, h = p
// rule): groups of a routers, each router with p hosts and h global-link
// ports, routers fully meshed within a group and exactly one global link
// between every group pair. The sizer picks the smallest p whose maximum
// balanced build 2p²(2p²+1) covers the host count, then trims the group
// count to ceil(hosts / 2p²). Minimal routes plus one-group detours make
// up the ECMP set (slack-2 enumeration).
type dragonflyGen struct{}

func (dragonflyGen) Name() string { return "dragonfly" }

func (dragonflyGen) Build(spec Spec) (*fattree.Topology, Design, error) {
	// Smallest p with capacity 2p²·(2p²+1) ≥ hosts.
	p := 1
	for 2*p*p*(2*p*p+1) < spec.Hosts {
		p++
	}
	a := 2 * p // routers per group
	perGroup := p * a
	groups := (spec.Hosts + perGroup - 1) / perGroup
	if groups < 2 {
		groups = 2 // a single group has no global tier — not a dragonfly
	}
	h := p // global ports per router
	ports := p + (a - 1) + h
	b := fattree.NewGraphBuilder(ports, 2)
	routers := make([][]int, groups)
	left := spec.Hosts
	for g := 0; g < groups; g++ {
		routers[g] = make([]int, a)
		for r := 0; r < a; r++ {
			routers[g][r] = b.AddNode(fattree.KindEdge, g, r)
			for i := 0; i < p && left > 0; i++ {
				host := b.AddNode(fattree.KindHost, g, r*p+i)
				if err := b.AddLink(host, routers[g][r], spec.LinkSpeed, false); err != nil {
					return nil, Design{}, err
				}
				left--
			}
		}
		// Intra-group complete graph.
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				if err := b.AddLink(routers[g][i], routers[g][j], spec.LinkSpeed, true); err != nil {
					return nil, Design{}, err
				}
			}
		}
	}
	// One global link per group pair, striped over each group's routers so
	// no router exceeds its h global ports.
	for i := 0; i < groups; i++ {
		for j := i + 1; j < groups; j++ {
			ri := routers[i][(j-1)%a]
			rj := routers[j][i%a]
			if err := b.AddLink(ri, rj, spec.LinkSpeed, true); err != nil {
				return nil, Design{}, err
			}
		}
	}
	t := b.Topology()
	InstallPaths(t, 2)
	d := Design{
		// A balanced group cut crosses ⌊g/2⌋·⌈g/2⌉ global links — the
		// dragonfly's classic thin waist.
		Bisection: spec.LinkSpeed * units.Bandwidth((groups/2)*((groups+1)/2)),
		Params:    map[string]int{"p": p, "a": a, "h": h, "groups": groups},
	}
	return t, d, nil
}
