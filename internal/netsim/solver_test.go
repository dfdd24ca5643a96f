package netsim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// denseOf converts a map-keyed instance with contiguous link IDs 0..n-1
// into a dense capacity slice.
func denseOf(t *testing.T, capacity map[int]float64) []float64 {
	t.Helper()
	out := make([]float64, len(capacity))
	for l, c := range capacity {
		if l < 0 || l >= len(out) {
			t.Fatalf("non-contiguous link id %d", l)
		}
		out[l] = c
	}
	return out
}

// links32 narrows link-ID rows to the Solver's int32 form.
func links32(paths [][]int) [][]int32 {
	out := make([][]int32, len(paths))
	for i, p := range paths {
		out[i] = make([]int32, len(p))
		for j, l := range p {
			out[i][j] = int32(l)
		}
	}
	return out
}

// solverCases are shared dense-vs-reference instances covering the solver
// phases: demand-limited freezes, bottleneck freezes, dead links, and
// multi-round progressive filling.
var solverCases = []struct {
	name     string
	demands  []float64
	paths    [][]int
	capacity map[int]float64
}{
	{"uncontended", []float64{10, 20}, [][]int{{0}, {1}}, map[int]float64{0: 100, 1: 100}},
	{"shared-bottleneck", []float64{100, 100, 100}, [][]int{{0}, {0}, {0}}, map[int]float64{0: 90}},
	{"demand-limited-first", []float64{10, 90}, [][]int{{0}, {0}}, map[int]float64{0: 100}},
	{"two-rounds", []float64{100, 100, 100}, [][]int{{0, 1}, {0}, {1}}, map[int]float64{0: 60, 1: 150}},
	{"dead-link", []float64{50, 10}, [][]int{{0}, {1}}, map[int]float64{0: 0, 1: 100}},
	{"chain", []float64{30, 30, 30, 30}, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, map[int]float64{0: 40, 1: 80, 2: 25, 3: 100}},
	{"zero-demand", []float64{0, 10}, [][]int{{0}, {0}}, map[int]float64{0: 5}},
}

// TestSolverMatchesReference checks the dense solver against the retained
// map-based reference on hand-picked instances, via both the dense and the
// map-keyed entry points.
func TestSolverMatchesReference(t *testing.T) {
	for _, tc := range solverCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := maxMinReference(tc.demands, tc.paths, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			var s Solver
			dense, err := s.Solve(tc.demands, links32(tc.paths), denseOf(t, tc.capacity))
			if err != nil {
				t.Fatal(err)
			}
			viaMap, err := MaxMin(tc.demands, tc.paths, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(dense[i]-want[i]) > 1e-9 {
					t.Errorf("dense rate[%d] = %v, reference %v", i, dense[i], want[i])
				}
				if math.Abs(viaMap[i]-want[i]) > 1e-9 {
					t.Errorf("MaxMin rate[%d] = %v, reference %v", i, viaMap[i], want[i])
				}
			}
		})
	}
}

// TestSolverReuse runs disagreeing instances back-to-back through one
// solver: stale scratch from a larger instance must not leak into a
// smaller or differently-shaped one.
func TestSolverReuse(t *testing.T) {
	var s Solver
	for round := 0; round < 3; round++ {
		for _, tc := range solverCases {
			want, err := maxMinReference(tc.demands, tc.paths, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Solve(tc.demands, links32(tc.paths), denseOf(t, tc.capacity))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Errorf("%s round %d: rate[%d] = %v, want %v", tc.name, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSolverErrors mirrors the reference validation on the dense entry.
func TestSolverErrors(t *testing.T) {
	var s Solver
	if _, err := s.Solve([]float64{1}, nil, nil); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := s.Solve([]float64{-1}, [][]int32{{0}}, []float64{10}); err == nil {
		t.Error("negative demand should fail")
	}
	if _, err := s.Solve([]float64{1}, [][]int32{{}}, []float64{10}); err == nil {
		t.Error("empty path should fail")
	}
	if _, err := s.Solve([]float64{1}, [][]int32{{3}}, []float64{10}); err == nil {
		t.Error("out-of-range link should fail")
	}
	if _, err := s.Solve([]float64{1}, [][]int32{{0}}, []float64{-5}); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := MaxMin([]float64{1}, [][]int{{7}}, map[int]float64{1: 10}); err == nil {
		t.Error("unknown map link should fail")
	}
}

// TestSolverAllocFree: a warm solver's Solve path performs no heap
// allocations — the property the simulation hot loop depends on.
func TestSolverAllocFree(t *testing.T) {
	var s Solver
	tc := solverCases[5] // chain: multi-round, all phases
	caps, paths := denseOf(t, tc.capacity), links32(tc.paths)
	if _, err := s.Solve(tc.demands, paths, caps); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Solve(tc.demands, paths, caps); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm Solve allocates %.1f objects/op, want 0", allocs)
	}
}

// parallelFlows builds a staggered multi-iteration workload so the sweep
// produces many intervals with varying active sets.
func parallelFlows(t *testing.T, top *fattree.Topology) []traffic.Flow {
	t.Helper()
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(3)
	if err != nil {
		t.Fatal(err)
	}
	hosts := top.Hosts()
	// Staggered extras crossing iteration boundaries.
	for i := 0; i < 8; i++ {
		flows = append(flows, traffic.Flow{
			Src: hosts[i], Dst: hosts[len(hosts)-1-i], Demand: 30 * units.Gbps,
			Start: units.Seconds(float64(i) * 0.17), End: units.Seconds(1.1 + float64(i)*0.31),
		})
	}
	return flows
}

// TestPathCacheReuse: repeated Runs on one Sim hit the path cache and the
// outputs stay identical to a fresh Sim's.
func TestPathCacheReuse(t *testing.T) {
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	flows := parallelFlows(t, top)
	s := New(top)
	first, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.warm.paths.index) == 0 {
		t.Fatal("path cache not populated")
	}
	second, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Error("cached-path rerun diverged from first run")
	}
}
