package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// MaxMin computes the demand-bounded max-min fair allocation of a
// map-keyed instance through the dense Solver: link IDs get dense indices
// in first-seen order over the flows' paths, and capacity entries no flow
// crosses are ignored, exactly as in maxMinReference.
//
// demands[i] is flow i's offered rate; paths[i] lists the link IDs flow i
// traverses; capacity maps link ID to its capacity. The returned rates
// satisfy: no link exceeds its capacity, no flow exceeds its demand, and
// no flow's rate can be increased without decreasing a flow of equal or
// smaller rate (progressive filling).
func MaxMin(demands []float64, paths [][]int, capacity map[int]float64) ([]float64, error) {
	if len(paths) != len(demands) {
		return nil, fmt.Errorf("netsim: %d demands but %d paths", len(demands), len(paths))
	}
	idx := make(map[int]int, len(capacity))
	var caps []float64
	dense := make([][]int32, len(paths))
	for i, path := range paths {
		for _, l := range path {
			d, ok := idx[l]
			if !ok {
				c, known := capacity[l]
				if !known {
					return nil, fmt.Errorf("netsim: flow %d crosses unknown link %d", i, l)
				}
				d = len(caps)
				idx[l] = d
				caps = append(caps, c)
			}
			dense[i] = append(dense[i], int32(d))
		}
	}
	var s Solver
	rates, err := s.Solve(demands, dense, caps)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), rates...), nil
}

// maxMinReference is the original map-based progressive-filling solver,
// kept verbatim as the oracle the differential tests compare the dense
// Solver against.
func maxMinReference(demands []float64, paths [][]int, capacity map[int]float64) ([]float64, error) {
	n := len(demands)
	if len(paths) != n {
		return nil, fmt.Errorf("netsim: %d demands but %d paths", n, len(paths))
	}
	rates := make([]float64, n)
	frozen := make([]bool, n)
	remaining := make(map[int]float64, len(capacity))
	count := make(map[int]int)
	for i := 0; i < n; i++ {
		if demands[i] < 0 {
			return nil, fmt.Errorf("netsim: flow %d negative demand %v", i, demands[i])
		}
		if len(paths[i]) == 0 {
			return nil, fmt.Errorf("netsim: flow %d has empty path", i)
		}
		for _, l := range paths[i] {
			c, ok := capacity[l]
			if !ok {
				return nil, fmt.Errorf("netsim: flow %d crosses unknown link %d", i, l)
			}
			if c < 0 {
				return nil, fmt.Errorf("netsim: link %d negative capacity %v", l, c)
			}
			if _, seen := remaining[l]; !seen {
				remaining[l] = c
			}
			count[l]++
		}
	}

	unfrozen := n
	for unfrozen > 0 {
		// Minimum fair share across links still carrying unfrozen flows.
		share := math.Inf(1)
		for l, c := range count {
			if c == 0 {
				continue
			}
			if s := remaining[l] / float64(c); s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) {
			// No link constrains the remaining flows (cannot happen with
			// non-empty paths, but guard anyway): give them their demand.
			for i := 0; i < n; i++ {
				if !frozen[i] {
					freezeRef(i, demands[i], rates, frozen, paths, remaining, count)
					unfrozen--
				}
			}
			break
		}
		// Freeze demand-limited flows first: any unfrozen flow whose demand
		// is at or below the current share can take exactly its demand.
		progressed := false
		for i := 0; i < n; i++ {
			if !frozen[i] && demands[i] <= share+1e-12 {
				freezeRef(i, demands[i], rates, frozen, paths, remaining, count)
				unfrozen--
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Otherwise freeze the flows crossing a bottleneck link at the share.
		for l, c := range count {
			if c == 0 {
				continue
			}
			if remaining[l]/float64(c) <= share+1e-12 {
				for i := 0; i < n; i++ {
					if frozen[i] {
						continue
					}
					for _, pl := range paths[i] {
						if pl == l {
							freezeRef(i, share, rates, frozen, paths, remaining, count)
							unfrozen--
							break
						}
					}
				}
			}
		}
	}
	return rates, nil
}

func freezeRef(i int, rate float64, rates []float64, frozen []bool, paths [][]int, remaining map[int]float64, count map[int]int) {
	rates[i] = rate
	frozen[i] = true
	for _, l := range paths[i] {
		remaining[l] -= rate
		if remaining[l] < 0 {
			remaining[l] = 0 // numerical guard
		}
		count[l]--
	}
}

func TestMaxMinSingleLink(t *testing.T) {
	// Three flows share a 90-unit link; equal split.
	rates, err := MaxMin(
		[]float64{100, 100, 100},
		[][]int{{1}, {1}, {1}},
		map[int]float64{1: 90})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if math.Abs(r-30) > 1e-9 {
			t.Errorf("rate[%d] = %v, want 30", i, r)
		}
	}
}

func TestMaxMinDemandBounded(t *testing.T) {
	// One small flow takes its demand; the rest split the remainder.
	rates, err := MaxMin(
		[]float64{10, 100, 100},
		[][]int{{1}, {1}, {1}},
		map[int]float64{1: 90})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-10) > 1e-9 {
		t.Errorf("small flow = %v, want 10", rates[0])
	}
	for _, i := range []int{1, 2} {
		if math.Abs(rates[i]-40) > 1e-9 {
			t.Errorf("rate[%d] = %v, want 40", i, rates[i])
		}
	}
}

func TestMaxMinClassicTandem(t *testing.T) {
	// The textbook example: flow A crosses links 1 and 2, flow B link 1,
	// flow C link 2. cap(1)=10, cap(2)=20. Max-min: A=5, B=5, C=15.
	rates, err := MaxMin(
		[]float64{100, 100, 100},
		[][]int{{1, 2}, {1}, {2}},
		map[int]float64{1: 10, 2: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 5, 15}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Errorf("rate[%d] = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestMaxMinUnconstrained(t *testing.T) {
	// Demands below all fair shares: everyone gets their demand.
	rates, err := MaxMin(
		[]float64{5, 7},
		[][]int{{1}, {2}},
		map[int]float64{1: 100, 2: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 5 || rates[1] != 7 {
		t.Errorf("rates = %v, want [5 7]", rates)
	}
}

func TestMaxMinZeroCapacity(t *testing.T) {
	// A parked (zero-capacity) link starves its flows without wedging the
	// algorithm.
	rates, err := MaxMin(
		[]float64{10, 10},
		[][]int{{1}, {2}},
		map[int]float64{1: 0, 2: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0 {
		t.Errorf("flow on dead link = %v, want 0", rates[0])
	}
	if rates[1] != 10 {
		t.Errorf("healthy flow = %v, want 10", rates[1])
	}
}

func TestMaxMinZeroDemand(t *testing.T) {
	rates, err := MaxMin(
		[]float64{0, 50},
		[][]int{{1}, {1}},
		map[int]float64{1: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0 || math.Abs(rates[1]-40) > 1e-9 {
		t.Errorf("rates = %v, want [0 40]", rates)
	}
}

func TestMaxMinErrors(t *testing.T) {
	if _, err := MaxMin([]float64{1}, nil, nil); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := MaxMin([]float64{-1}, [][]int{{1}}, map[int]float64{1: 10}); err == nil {
		t.Error("negative demand should fail")
	}
	if _, err := MaxMin([]float64{1}, [][]int{{}}, map[int]float64{}); err == nil {
		t.Error("empty path should fail")
	}
	if _, err := MaxMin([]float64{1}, [][]int{{9}}, map[int]float64{1: 10}); err == nil {
		t.Error("unknown link should fail")
	}
	if _, err := MaxMin([]float64{1}, [][]int{{1}}, map[int]float64{1: -5}); err == nil {
		t.Error("negative capacity should fail")
	}
	if rates, err := MaxMin(nil, nil, nil); err != nil || len(rates) != 0 {
		t.Error("empty input should succeed with no rates")
	}
}

// Property: max-min allocations are feasible (no link over capacity, no
// flow over demand) and leave no link with unfrozen headroom wasted: every
// flow is either demand-limited or crosses a saturated link.
func TestMaxMinFeasibleAndEfficient(t *testing.T) {
	f := func(seed [12]uint8) bool {
		// Build a small random instance from the seed: 4 links, 6 flows.
		caps := map[int]float64{}
		for l := 0; l < 4; l++ {
			caps[l] = float64(10 + int(seed[l])%90)
		}
		demands := make([]float64, 6)
		paths := make([][]int, 6)
		for i := 0; i < 6; i++ {
			demands[i] = float64(1 + int(seed[i+4])%60)
			a := int(seed[(i+7)%12]) % 4
			b := (a + 1 + int(seed[(i+3)%12])%3) % 4
			paths[i] = []int{a, b}
		}
		rates, err := MaxMin(demands, paths, caps)
		if err != nil {
			return false
		}
		used := map[int]float64{}
		for i, r := range rates {
			if r < -1e-9 || r > demands[i]+1e-9 {
				return false
			}
			for _, l := range paths[i] {
				used[l] += r
			}
		}
		for l, u := range used {
			if u > caps[l]+1e-6 {
				return false
			}
		}
		// Efficiency: every flow is demand-limited or bottlenecked.
		for i, r := range rates {
			if math.Abs(r-demands[i]) < 1e-6 {
				continue
			}
			bottlenecked := false
			for _, l := range paths[i] {
				if used[l] > caps[l]-1e-6 {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
