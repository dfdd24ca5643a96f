package topo

import (
	"fmt"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

func init() {
	Register(torusGen{dims: 2})
	Register(torusGen{dims: 3})
}

// torusHosts is the host concentration per torus router.
const torusHosts = 2

// torusGen builds a wrap-around k-ary mesh in 2 or 3 dimensions with
// torusHosts hosts per router. The sizer picks near-balanced dimension
// sizes whose product covers ceil(hosts/torusHosts) routers with minimal
// slack. Direct networks route through many intermediate switches, so the
// zoo's torus shows the opposite power profile of a Clos: few links and
// switches, but nearly all of them busy at any load. Minimal routes plus
// one-detour spares form the ECMP set (slack-2 enumeration).
type torusGen struct {
	dims int
}

func (g torusGen) Name() string { return fmt.Sprintf("torus%dd", g.dims) }

// torusDims picks near-balanced dimensions with product ≥ routers,
// preferring the smallest product, then the smallest spread. The first
// dimension tries every value up to the balanced root, recursing on the
// remainder, so the search stays polynomial in the router count.
func torusDims(routers, dims int) []int {
	if dims == 1 {
		return []int{routers}
	}
	var best []int
	bestProd, bestSpread := -1, -1
	for f := 1; pow(f, dims) <= routers*f; f++ { // f up to ceil(routers^(1/dims))
		rest := torusDims((routers+f-1)/f, dims-1)
		cand := append([]int{f}, rest...)
		prod, lo, hi := 1, cand[0], cand[0]
		for _, d := range cand {
			prod *= d
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		if prod < routers {
			continue
		}
		if bestProd < 0 || prod < bestProd || (prod == bestProd && hi-lo < bestSpread) {
			best, bestProd, bestSpread = cand, prod, hi-lo
		}
	}
	return best
}

// pow is bounded integer exponentiation for the dims search.
func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

func (g torusGen) Build(spec Spec) (*fattree.Topology, Design, error) {
	routers := (spec.Hosts + torusHosts - 1) / torusHosts
	dims := torusDims(routers, g.dims)
	prod := 1
	for _, d := range dims {
		prod *= d
	}
	// Each dimension of size n ≥ 3 contributes 2 ports (plus the wrap); a
	// size-2 dimension has a single neighbor and no wrap.
	ports := torusHosts
	for _, n := range dims {
		if n >= 3 {
			ports += 2
		} else if n == 2 {
			ports++
		}
	}
	b := fattree.NewGraphBuilder(ports, 2)
	ids := make([]int, prod)
	strides := make([]int, len(dims))
	s := 1
	for i := range dims {
		strides[i] = s
		s *= dims[i]
	}
	left := spec.Hosts
	for r := 0; r < prod; r++ {
		ids[r] = b.AddNode(fattree.KindEdge, -1, r)
		for h := 0; h < torusHosts && left > 0; h++ {
			host := b.AddNode(fattree.KindHost, -1, r*torusHosts+h)
			if err := b.AddLink(host, ids[r], spec.LinkSpeed, false); err != nil {
				return nil, Design{}, err
			}
			left--
		}
	}
	// Neighbor links per dimension: consecutive plus the wrap (n ≥ 3 only;
	// n = 2 would duplicate the consecutive link, n = 1 has none).
	for r := 0; r < prod; r++ {
		rem := r
		for i, n := range dims {
			coord := (rem / strides[i]) % n
			if coord+1 < n {
				if err := b.AddLink(ids[r], ids[r+strides[i]], spec.LinkSpeed, true); err != nil {
					return nil, Design{}, err
				}
			} else if coord == n-1 && n >= 3 {
				if err := b.AddLink(ids[r], ids[r-(n-1)*strides[i]], spec.LinkSpeed, true); err != nil {
					return nil, Design{}, err
				}
			}
			_ = rem
		}
	}
	t := b.Topology()
	InstallPaths(t, 2)
	// Cut across the largest dimension: the orthogonal hyperplane of
	// routers each contribute one link (two with a wrap).
	maxDim, crossing := 1, 1
	for _, n := range dims {
		if n > maxDim {
			maxDim = n
		}
	}
	crossing = prod / maxDim
	if maxDim >= 3 {
		crossing *= 2
	}
	params := map[string]int{"routers": prod, "hostsperrouter": torusHosts}
	for i, n := range dims {
		params[fmt.Sprintf("dim%d", i)] = n
	}
	d := Design{
		Bisection: spec.LinkSpeed * units.Bandwidth(crossing),
		Params:    params,
	}
	return t, d, nil
}
