// Package topo is the topology zoo: named generators that build explicit
// *fattree.Topology graphs for network designs beyond the folded Clos —
// dragonfly, 2D/3D torus, rail-only and rail-optimized fabrics,
// oversubscribed leaf-spine, and an OCS-tailored pruned Clos. Every
// generator sizes itself on equal footing from a target host count (the
// sizer hits the request exactly and reports the achieved bisection
// bandwidth, in internal/fattree/size.go's accounting style), so the
// cross-topology scenarios compare designs serving identical workloads.
//
// The produced topologies are first-class: netsim.Sim routes, solves, and
// fault-reroutes on them unchanged, because each generator either keeps
// Clos Pod/Kind semantics (native enumeration) or installs a deterministic
// BFS path enumerator via Topology.SetPathFn.
package topo

import (
	"fmt"
	"sort"
	"sync"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

// Spec is the equal-footing sizing request every generator accepts.
type Spec struct {
	// Hosts is the exact host count the built topology must provide.
	Hosts int
	// LinkSpeed is the uniform per-port speed.
	LinkSpeed units.Bandwidth
}

func (s Spec) validate() error {
	if s.Hosts < 2 {
		return fmt.Errorf("topo: host count %d must be at least 2", s.Hosts)
	}
	if s.LinkSpeed <= 0 {
		return fmt.Errorf("topo: link speed %v must be positive", s.LinkSpeed)
	}
	return nil
}

// Design reports what a generator's sizer chose, mirroring
// fattree.Design's accounting: switches, inter-switch (optical) links —
// each carrying two transceivers in the power model — and the achieved
// bisection bandwidth of the built instance.
type Design struct {
	Name  string
	Hosts int
	// Switches and Links count switches and inter-switch optical links of
	// the built graph (host attachment links are electrical and excluded,
	// as in fattree.Design.InterSwitchLinks).
	Switches int
	Links    int
	// Bisection is the capacity crossing a balanced cut of the hosts —
	// the equal-footing figure of merit next to switch/link counts.
	Bisection units.Bandwidth
	// Params records the generator-specific parameters the sizer picked
	// (radix, group count, dims, taper, …).
	Params map[string]int
}

// Generator builds one zoo topology family.
type Generator interface {
	// Name is the registry key.
	Name() string
	// Build sizes the family for the spec and constructs the instance.
	// The returned design reflects the built graph exactly.
	Build(Spec) (*fattree.Topology, Design, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Generator{}
)

// Register adds a generator to the zoo. Duplicate names panic: the zoo is
// assembled from package init functions, so a collision is a programming
// error, not a runtime condition.
func Register(g Generator) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[g.Name()]; dup {
		panic(fmt.Sprintf("topo: duplicate generator %q", g.Name()))
	}
	registry[g.Name()] = g
}

// Get returns a registered generator.
func Get(name string) (Generator, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("topo: unknown topology %q (have %v)", name, Names())
	}
	return g, nil
}

// Names lists the registered generators, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build sizes and constructs a named topology, then enforces the zoo-wide
// contracts every generator promises: the sizer hit the host count
// exactly, the graph validates, and it is connected. The returned design's
// switch/link counts are recomputed from the built graph, so they can
// never drift from the instance.
func Build(name string, spec Spec) (*fattree.Topology, Design, error) {
	g, err := Get(name)
	if err != nil {
		return nil, Design{}, err
	}
	if err := spec.validate(); err != nil {
		return nil, Design{}, err
	}
	t, d, err := g.Build(spec)
	if err != nil {
		return nil, Design{}, fmt.Errorf("topo: %s: %w", name, err)
	}
	if got := len(t.Hosts()); got != spec.Hosts {
		return nil, Design{}, fmt.Errorf("topo: %s sized %d hosts, requested %d", name, got, spec.Hosts)
	}
	if err := t.Validate(); err != nil {
		return nil, Design{}, fmt.Errorf("topo: %s: %w", name, err)
	}
	if err := checkConnected(t); err != nil {
		return nil, Design{}, fmt.Errorf("topo: %s: %w", name, err)
	}
	d.Name = name
	d.Hosts = len(t.Hosts())
	d.Switches = len(t.SwitchIDs())
	d.Links = 0
	for _, l := range t.Links {
		if l.Optical {
			d.Links++
		}
	}
	return t, d, nil
}

// checkConnected verifies every node is reachable from the first host.
func checkConnected(t *fattree.Topology) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("empty topology")
	}
	seen := make([]bool, len(t.Nodes))
	queue := []int{t.Hosts()[0]}
	seen[queue[0]] = true
	visited := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, lid := range t.LinksOf(v) {
			p := t.Peer(lid, v)
			if !seen[p] {
				seen[p] = true
				visited++
				queue = append(queue, p)
			}
		}
	}
	if visited != len(t.Nodes) {
		return fmt.Errorf("graph disconnected: reached %d of %d nodes", visited, len(t.Nodes))
	}
	return nil
}

// TierCount is one row of a per-tier census.
type TierCount struct {
	Kind  string `json:"kind"`
	Nodes int    `json:"nodes"`
}

// LinkCount groups links by the kinds of their endpoints and speed.
type LinkCount struct {
	// Between names the endpoint tiers, lower kind first (e.g. "edge-agg",
	// "host-edge").
	Between string `json:"between"`
	Count   int    `json:"count"`
	Speed   string `json:"speed"`
	Optical bool   `json:"optical"`
}

// CensusReport is the per-tier node/link/speed breakdown of a built
// topology — the machine-readable inspection cmd/fattree emits.
type CensusReport struct {
	Tiers []TierCount `json:"tiers"`
	Links []LinkCount `json:"links"`
}

// Census tallies a topology's nodes per tier and links per tier pair.
func Census(t *fattree.Topology) CensusReport {
	tiers := map[fattree.NodeKind]int{}
	for _, n := range t.Nodes {
		tiers[n.Kind]++
	}
	type linkKey struct {
		between string
		speed   units.Bandwidth
		optical bool
	}
	links := map[linkKey]int{}
	for _, l := range t.Links {
		ka, kb := t.Nodes[l.A].Kind, t.Nodes[l.B].Kind
		if ka > kb {
			ka, kb = kb, ka
		}
		links[linkKey{fmt.Sprintf("%v-%v", ka, kb), l.Speed, l.Optical}]++
	}
	var rep CensusReport
	for _, k := range []fattree.NodeKind{fattree.KindHost, fattree.KindEdge, fattree.KindAgg, fattree.KindCore} {
		if tiers[k] > 0 {
			rep.Tiers = append(rep.Tiers, TierCount{Kind: k.String(), Nodes: tiers[k]})
		}
	}
	for k, c := range links {
		rep.Links = append(rep.Links, LinkCount{Between: k.between, Count: c, Speed: k.speed.String(), Optical: k.optical})
	}
	sort.Slice(rep.Links, func(i, j int) bool {
		if rep.Links[i].Between != rep.Links[j].Between {
			return rep.Links[i].Between < rep.Links[j].Between
		}
		if rep.Links[i].Speed != rep.Links[j].Speed {
			return rep.Links[i].Speed < rep.Links[j].Speed
		}
		// Final tie-break so groups differing only in opticality do not
		// land in map-iteration order: electrical sorts before optical.
		return !rep.Links[i].Optical && rep.Links[j].Optical
	})
	return rep
}
