package netsim

import (
	"fmt"
	"math"
)

// Solver computes demand-bounded max-min fair allocations over dense
// link-ID-indexed capacity slices. All scratch state — remaining capacity,
// unfrozen-flow counts, frozen flags, the active-link worklist, and the
// link→flow index — is reused across calls, so the simulation hot path
// allocates nothing once the solver is warm. A Solver is not safe for
// concurrent use; give each worker its own.
type Solver struct {
	rates    []float64
	frozen   []bool
	unfrozen []int // flow indices not yet frozen, ascending

	remaining []float64
	count     []int
	active    []int // link IDs still carrying unfrozen flows, ascending

	// CSR link→flow index: flows crossing link l are
	// csrFlows[csrOff[l]:csrOff[l+1]].
	csrOff   []int
	csrFlows []int
	cursor   []int
}

// Solve computes the max-min fair rates for the flows. demands[i] is flow
// i's offered rate, paths[i] the link IDs it traverses, and capacity[l]
// the capacity of link ID l; every path entry must index into capacity.
// Link IDs are int32 so that rows can be cut straight from the simulator's
// compact path table. The returned slice is owned by the solver and valid
// until the next call.
func (s *Solver) Solve(demands []float64, paths [][]int32, capacity []float64) ([]float64, error) {
	n, nl := len(demands), len(capacity)
	if len(paths) != n {
		return nil, fmt.Errorf("netsim: %d demands but %d paths", n, len(paths))
	}
	s.rates = resize(s.rates, n)
	s.frozen = resize(s.frozen, n)
	s.remaining = append(s.remaining[:0], capacity...)
	s.count = resize(s.count, nl)

	total := 0
	for i := 0; i < n; i++ {
		if demands[i] < 0 {
			return nil, fmt.Errorf("netsim: flow %d negative demand %v", i, demands[i])
		}
		if len(paths[i]) == 0 {
			return nil, fmt.Errorf("netsim: flow %d has empty path", i)
		}
		for _, l := range paths[i] {
			if l < 0 || int(l) >= nl {
				return nil, fmt.Errorf("netsim: flow %d crosses unknown link %d", i, l)
			}
			if capacity[l] < 0 {
				return nil, fmt.Errorf("netsim: link %d negative capacity %v", l, capacity[l])
			}
			s.count[l]++
		}
		total += len(paths[i])
	}

	// Build the link→flow index while counts are still pristine.
	s.csrOff = resize(s.csrOff, nl+1)
	s.cursor = resize(s.cursor, nl)
	off := 0
	for l := 0; l < nl; l++ {
		s.csrOff[l] = off
		s.cursor[l] = off
		off += s.count[l]
	}
	s.csrOff[nl] = off
	if cap(s.csrFlows) < total {
		s.csrFlows = make([]int, total)
	}
	s.csrFlows = s.csrFlows[:total]
	for i := 0; i < n; i++ {
		for _, l := range paths[i] {
			s.csrFlows[s.cursor[l]] = i
			s.cursor[l]++
		}
	}

	s.active = s.active[:0]
	for l := 0; l < nl; l++ {
		if s.count[l] > 0 {
			s.active = append(s.active, l)
		}
	}
	s.unfrozen = s.unfrozen[:0]
	for i := 0; i < n; i++ {
		s.unfrozen = append(s.unfrozen, i)
	}

	for len(s.unfrozen) > 0 {
		// Minimum fair share across links still carrying unfrozen flows,
		// compacting drained links out of the worklist as we scan.
		share := math.Inf(1)
		k := 0
		for _, l := range s.active {
			c := s.count[l]
			if c == 0 {
				continue
			}
			s.active[k] = l
			k++
			if v := s.remaining[l] / float64(c); v < share {
				share = v
			}
		}
		s.active = s.active[:k]
		if math.IsInf(share, 1) {
			// No link constrains the remaining flows (cannot happen with
			// non-empty paths, but guard anyway): give them their demand.
			for _, i := range s.unfrozen {
				s.freeze(i, demands[i], paths)
			}
			s.unfrozen = s.unfrozen[:0]
			break
		}
		// Freeze demand-limited flows first: any unfrozen flow whose demand
		// is at or below the current share can take exactly its demand.
		progressed := false
		k = 0
		for _, i := range s.unfrozen {
			if demands[i] <= share+1e-12 {
				s.freeze(i, demands[i], paths)
				progressed = true
			} else {
				s.unfrozen[k] = i
				k++
			}
		}
		s.unfrozen = s.unfrozen[:k]
		if progressed {
			continue
		}
		// Otherwise freeze the flows crossing a bottleneck link at the share.
		for _, l := range s.active {
			c := s.count[l]
			if c == 0 {
				continue
			}
			if s.remaining[l]/float64(c) <= share+1e-12 {
				for _, i := range s.csrFlows[s.csrOff[l]:s.csrOff[l+1]] {
					if !s.frozen[i] {
						s.freeze(i, share, paths)
					}
				}
			}
		}
		k = 0
		for _, i := range s.unfrozen {
			if !s.frozen[i] {
				s.unfrozen[k] = i
				k++
			}
		}
		s.unfrozen = s.unfrozen[:k]
	}
	return s.rates, nil
}

func (s *Solver) freeze(i int, rate float64, paths [][]int32) {
	s.rates[i] = rate
	s.frozen[i] = true
	for _, l := range paths[i] {
		s.remaining[l] -= rate
		if s.remaining[l] < 0 {
			s.remaining[l] = 0 // numerical guard
		}
		s.count[l]--
	}
}

// resize returns s resized to n zeroed elements, reusing its backing
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bytes is the size of the solver's scratch arrays.
func (s *Solver) bytes() int {
	return capBytes(s.rates) + capBytes(s.frozen) + capBytes(s.unfrozen) + capBytes(s.remaining) +
		capBytes(s.count) + capBytes(s.active) + capBytes(s.csrOff) + capBytes(s.csrFlows) + capBytes(s.cursor)
}
