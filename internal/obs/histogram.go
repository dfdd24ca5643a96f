package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free fixed-bucket histogram. Observations are two
// atomic adds (bucket + sum), so it is safe on hot paths and under
// arbitrary concurrency; rendering takes a point-in-time snapshot of the
// counters. Bucket bounds are upper bounds in ascending order; an
// implicit +Inf bucket catches the tail, matching Prometheus semantics.
type Histogram struct {
	bounds []float64 // ascending upper bounds (exclusive of +Inf)
	counts []atomic.Uint64
	inf    atomic.Uint64
	// sumNanos accumulates the observed total as integer nanoseconds —
	// an atomic add instead of a CAS loop, at the cost of sub-nanosecond
	// truncation, which is far below the bucket resolution.
	sumNanos atomic.Int64
}

// DefLatencyBuckets spans 5 µs to 10 s: the engine's cheapest analytic
// ops land in the microsecond buckets, full fault sweeps in the seconds.
var DefLatencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (seconds). Panics on empty or unsorted bounds — bucket layout is a
// programming decision, not input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) {
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sumNanos.Add(int64(d))
}

// Sum is the total of all observations, in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNanos.Load()) / 1e9 }

// snapshot returns cumulative bucket counts (one per bound, plus +Inf
// last), the total count, and the sum — the exposition-format shape.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts)+1)
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	run += h.inf.Load()
	cum[len(h.counts)] = run
	return cum, run, h.Sum()
}

// Quantile estimates the q-quantile (q in [0,1]) of the observations by
// linear interpolation inside the bucket the quantile lands in — the
// same estimate Prometheus's histogram_quantile computes. With no
// observations it returns 0; a quantile landing in the +Inf bucket
// returns the highest finite bound (the histogram cannot resolve the
// tail beyond its last bucket). The estimate reads a point-in-time
// snapshot, so it is safe to call concurrently with ObserveDuration.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	cum, count, _ := h.snapshot()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	for i, bound := range h.bounds {
		c := float64(cum[i])
		if c < rank {
			continue
		}
		lower, lowerCum := 0.0, 0.0
		if i > 0 {
			lower, lowerCum = h.bounds[i-1], float64(cum[i-1])
		}
		inBucket := c - lowerCum
		if inBucket <= 0 {
			return bound
		}
		return lower + (bound-lower)*(rank-lowerCum)/inBucket
	}
	return h.bounds[len(h.bounds)-1]
}

// formatBound renders a bucket bound the way Prometheus spells le=
// labels: shortest round-trip float, with +Inf for the tail.
func formatBound(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return formatFloat(v)
}
