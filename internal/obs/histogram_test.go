package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// observe records an observation given in seconds.
func observe(h *Histogram, seconds float64) {
	h.ObserveDuration(time.Duration(seconds * float64(time.Second)))
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	observe(h, 0.005) // bucket 0
	observe(h, 0.01)  // le="0.01" is inclusive -> bucket 0
	observe(h, 0.05)  // bucket 1
	observe(h, 0.5)   // bucket 2
	observe(h, 5)     // +Inf
	cum, count, sum := h.snapshot()
	wantCum := []uint64{2, 3, 4, 5}
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	if count != 5 {
		t.Errorf("snapshot count = %d, want 5", count)
	}
	if math.Abs(sum-5.565) > 1e-6 {
		t.Errorf("sum = %v, want 5.565", sum)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	h.ObserveDuration(3 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-0.003) > 1e-9 {
		t.Errorf("Sum = %v, want 0.003", got)
	}
	if _, count, _ := h.snapshot(); count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.4, 0.8})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	// 100 observations, uniformly placed: 50 in (0,0.1], 30 in (0.1,0.2],
	// 15 in (0.2,0.4], 5 in (0.4,0.8].
	fill := func(n int, v float64) {
		for i := 0; i < n; i++ {
			observe(h, v)
		}
	}
	fill(50, 0.05)
	fill(30, 0.15)
	fill(15, 0.3)
	fill(5, 0.6)
	cases := []struct{ q, want float64 }{
		{0.50, 0.1},                   // rank 50 = exactly the first bucket's full count
		{0.25, 0.05},                  // rank 25, halfway through bucket (0, 0.1]
		{0.80, 0.2},                   // rank 80 = cumulative through second bucket
		{0.99, 0.4 + 0.4*(99-95)/5.0}, // interpolated in (0.4, 0.8]
		{1.00, 0.8},
		{0.00, 0.0},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A quantile landing beyond the last finite bound clamps to it.
	fill(900, 100)
	if got := h.Quantile(0.99); got != 0.8 {
		t.Errorf("tail Quantile = %v, want highest finite bound 0.8", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// under -race: the total count and sum must come out exact, proving the
// lock-free counters lose nothing.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1e-4, 1e-3, 1e-2, 1e-1, 1})
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Spread observations across all buckets deterministically.
				observe(h, math.Pow(10, -float64((g+i)%6)))
			}
		}(g)
	}
	wg.Wait()
	cum, count, _ := h.snapshot()
	if want := uint64(goroutines * per); count != want {
		t.Errorf("concurrent count = %d, want %d", count, want)
	}
	if cum[len(cum)-1] != count {
		t.Errorf("+Inf cumulative %d != count %d", cum[len(cum)-1], count)
	}
	// Each goroutine contributes a fixed multiset of values; the sum must
	// be exact up to the nanosecond truncation per observation.
	var wantSum float64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			wantSum += math.Pow(10, -float64((g+i)%6))
		}
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-3 {
		t.Errorf("concurrent Sum = %v, want %v", got, wantSum)
	}
}
