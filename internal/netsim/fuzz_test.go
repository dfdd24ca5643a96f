package netsim

import (
	"math"
	"testing"
)

// FuzzMaxMin feeds arbitrary small instances to the fairness solver and
// checks the core feasibility invariants on every accepted input: no link
// over capacity, no flow over demand, no negative rates, and termination
// (implied by returning at all).
func FuzzMaxMin(f *testing.F) {
	f.Add([]byte{10, 20, 30, 1, 2, 3, 4, 5, 6}, uint8(3), uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, nFlows, nLinks uint8) {
		flows := 1 + int(nFlows)%8
		links := 1 + int(nLinks)%6
		if len(raw) < flows*3+links {
			return
		}
		capacity := make(map[int]float64, links)
		for l := 0; l < links; l++ {
			capacity[l] = float64(raw[l]) // 0..255, zero-capacity allowed
		}
		demands := make([]float64, flows)
		paths := make([][]int, flows)
		for i := 0; i < flows; i++ {
			demands[i] = float64(raw[links+i*3])
			a := int(raw[links+i*3+1]) % links
			b := int(raw[links+i*3+2]) % links
			if a == b {
				paths[i] = []int{a}
			} else {
				paths[i] = []int{a, b}
			}
		}
		rates, err := MaxMin(demands, paths, capacity)
		if err != nil {
			t.Fatalf("valid instance rejected: %v", err)
		}
		used := map[int]float64{}
		for i, r := range rates {
			if r < -1e-9 {
				t.Fatalf("negative rate %v", r)
			}
			if r > demands[i]+1e-9 {
				t.Fatalf("flow %d rate %v exceeds demand %v", i, r, demands[i])
			}
			for _, l := range paths[i] {
				used[l] += r
			}
		}
		for l, u := range used {
			if u > capacity[l]+1e-6 {
				t.Fatalf("link %d used %v over capacity %v", l, u, capacity[l])
			}
		}
	})
}

// FuzzMaxMinDense is the differential oracle for the optimized solver:
// on every randomized instance, the dense Solver (both the slice-keyed
// and the map-keyed entry points) must match the retained map-based
// reference implementation's rate vector within 1e-9.
func FuzzMaxMinDense(f *testing.F) {
	f.Add([]byte{10, 20, 30, 1, 2, 3, 4, 5, 6}, uint8(3), uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, uint8(4), uint8(4))
	f.Add([]byte{100, 100, 100, 50, 0, 1, 50, 1, 0, 7, 0, 1}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, nFlows, nLinks uint8) {
		flows := 1 + int(nFlows)%8
		links := 1 + int(nLinks)%6
		if len(raw) < flows*3+links {
			return
		}
		capacity := make(map[int]float64, links)
		dense := make([]float64, links)
		for l := 0; l < links; l++ {
			capacity[l] = float64(raw[l]) // 0..255, zero-capacity allowed
			dense[l] = float64(raw[l])
		}
		demands := make([]float64, flows)
		paths := make([][]int, flows)
		for i := 0; i < flows; i++ {
			demands[i] = float64(raw[links+i*3])
			a := int(raw[links+i*3+1]) % links
			b := int(raw[links+i*3+2]) % links
			if a == b {
				paths[i] = []int{a}
			} else {
				paths[i] = []int{a, b}
			}
		}
		want, err := maxMinReference(demands, paths, capacity)
		if err != nil {
			t.Fatalf("reference rejected valid instance: %v", err)
		}
		var s Solver
		got, err := s.Solve(demands, links32(paths), dense)
		if err != nil {
			t.Fatalf("dense solver rejected valid instance: %v", err)
		}
		viaMap, err := MaxMin(demands, paths, capacity)
		if err != nil {
			t.Fatalf("MaxMin rejected valid instance: %v", err)
		}
		for i := range want {
			if diff := math.Abs(got[i] - want[i]); diff > 1e-9 {
				t.Fatalf("flow %d: dense %v vs reference %v (diff %v)\ndemands=%v paths=%v caps=%v",
					i, got[i], want[i], diff, demands, paths, capacity)
			}
			if diff := math.Abs(viaMap[i] - want[i]); diff > 1e-9 {
				t.Fatalf("flow %d: MaxMin %v vs reference %v (diff %v)\ndemands=%v paths=%v caps=%v",
					i, viaMap[i], want[i], diff, demands, paths, capacity)
			}
		}
	})
}
