package topo

import (
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/ocs"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

func init() {
	Register(ocsLeafGen{})
}

// ocsLeafGen materializes §4.2's OCS-tailored topology as an explicit
// graph: it sizes the full three-tier fabric the hosts would nominally
// occupy, runs the ocs.Tailor packing against a ring-allreduce traffic
// matrix (the steady pattern of a long training job), and then builds only
// the plan's active switches — packed edges, the aggregation switches the
// residual inter-edge traffic needs, and the cores the inter-pod remainder
// needs. Everything the plan powers off simply does not exist in the
// built graph, so the zoo scenario charges the tailored design only for
// what it keeps on. The OCS layer itself reconfigures between jobs, not
// within one, so the built instance is static.
type ocsLeafGen struct{}

func (ocsLeafGen) Name() string { return "ocsleaf" }

func (ocsLeafGen) Build(spec Spec) (*fattree.Topology, Design, error) {
	k := closRadix(spec.Hosts)
	fab, err := ocs.ThreeTierFabric(k, spec.LinkSpeed)
	if err != nil {
		return nil, Design{}, err
	}
	// Ring allreduce over abstract job hosts 0..N-1. All entries carry the
	// same demand, so the greedy packer's ID tie-breaks make the plan
	// deterministic.
	job := traffic.Job{
		ID:        0,
		Hosts:     identity(spec.Hosts),
		Period:    1,
		CommRatio: 0.5,
		Rate:      spec.LinkSpeed,
		Pattern:   traffic.Ring,
	}
	m, err := job.Matrix()
	if err != nil {
		return nil, Design{}, err
	}
	plan, err := ocs.Tailor(fab, m)
	if err != nil {
		return nil, Design{}, err
	}
	edges := plan.EdgeActive
	aggs := plan.AggActive
	cores := plan.CoreActive
	if edges > 1 && aggs < 1 {
		aggs = 1 // multiple edges still need a spine to reach each other
	}
	// Port budget is the worst actual degree — the pruned graph is not
	// bound by the nominal radix k on the aggregation tier, where one
	// switch may now serve every active edge.
	ports := k
	if d := fab.HostsPerEdge() + aggs; d > ports {
		ports = d
	}
	if d := edges + cores; d > ports {
		ports = d
	}
	b := fattree.NewGraphBuilder(ports, 3)
	edgeIDs := make([]int, edges)
	for e := range edgeIDs {
		edgeIDs[e] = b.AddNode(fattree.KindEdge, 0, e)
		for h := 0; h < spec.Hosts; h++ {
			if placed, ok := plan.EdgeOf(h); !ok || placed != e {
				continue
			}
			host := b.AddNode(fattree.KindHost, 0, h)
			if err := b.AddLink(host, edgeIDs[e], spec.LinkSpeed, false); err != nil {
				return nil, Design{}, err
			}
		}
	}
	aggIDs := make([]int, aggs)
	for a := range aggIDs {
		aggIDs[a] = b.AddNode(fattree.KindAgg, 0, a)
		for _, e := range edgeIDs {
			if err := b.AddLink(e, aggIDs[a], spec.LinkSpeed, true); err != nil {
				return nil, Design{}, err
			}
		}
	}
	for c := 0; c < cores; c++ {
		core := b.AddNode(fattree.KindCore, -1, c)
		for _, a := range aggIDs {
			if err := b.AddLink(a, core, spec.LinkSpeed, true); err != nil {
				return nil, Design{}, err
			}
		}
	}
	t := b.Topology()
	// Pruning breaks the Clos Pod stripes, so shortest-path enumeration
	// replaces the native walk (slack 0: the tailored graph keeps no spare
	// detours — that is its power story).
	InstallPaths(t, 0)
	bisection := spec.LinkSpeed * units.Bandwidth(spec.Hosts/2)
	if edges > 1 {
		bisection = spec.LinkSpeed * units.Bandwidth(aggs*(edges/2))
	}
	d := Design{
		Bisection: bisection,
		Params:    map[string]int{"radix": k, "edges": edges, "aggs": aggs, "cores": cores},
	}
	return t, d, nil
}

// identity returns [0,1,…,n-1].
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
