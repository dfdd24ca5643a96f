package admit

// Adaptive low-priority shedding. The fixed policy — shed low priority
// once the engine queue is half full — wastes headroom when the cluster
// is fast (half the queue idles) and reacts too late when rows are slow
// (half a queue of expensive sweeps already blows the latency target).
// When the serving layer supplies a latency probe and a target, the
// threshold walks between capacity/4 and 3×capacity/4 instead: observed
// p99 above the target tightens it, p99 comfortably below relaxes it,
// and a hysteresis band between the two holds it still so the threshold
// does not flap on every probe. Re-evaluation is rate-limited, so the
// hot path pays one atomic load per low-priority request in the common
// case.

const (
	// tightenAbove / relaxBelow bound the hysteresis band as multiples
	// of the target p99: outside the band the threshold moves, inside it
	// holds. The band must be non-empty or the threshold oscillates
	// between two probes straddling the target.
	tightenAbove = 1.2
	relaxBelow   = 0.8
)

// shedThreshold returns the pending-count bound at which low-priority
// work is shed right now, re-evaluating the adaptive walk if the probe
// is due. Without a probe/target pair it is the fixed half-capacity
// bound, unchanged from the non-adaptive controller.
func (c *Controller) shedThreshold() int64 {
	if c.p99 == nil || c.targetP99 <= 0 {
		return int64((c.capacity + 1) / 2)
	}
	c.maybeAdapt()
	return c.threshold.Load()
}

// ShedThreshold exposes the current effective low-priority shed bound
// (0 when the early shed is disabled) for status endpoints and tests.
func (c *Controller) ShedThreshold() int64 {
	if c.capacity <= 0 || c.pending == nil {
		return 0
	}
	return c.shedThreshold()
}

// maybeAdapt runs one step of the threshold walk if at least adaptEvery
// has passed since the last step. The CAS on lastAdapt elects a single
// adapting goroutine per interval; losers use the current threshold.
func (c *Controller) maybeAdapt() {
	now := c.now().UnixNano()
	last := c.lastAdapt.Load()
	if now-last < int64(c.adaptEvery) {
		return
	}
	if !c.lastAdapt.CompareAndSwap(last, now) {
		return
	}
	p99 := c.p99()
	if p99 <= 0 {
		// No observations yet: hold rather than walk on noise.
		return
	}
	target := c.targetP99.Seconds()
	cur := c.threshold.Load()
	next := cur
	switch {
	case p99 > target*tightenAbove:
		next = cur - c.adaptStep()
	case p99 < target*relaxBelow:
		next = cur + c.adaptStep()
	default:
		return // inside the hysteresis band: hold
	}
	if lo := c.thresholdFloor(); next < lo {
		next = lo
	}
	if hi := c.thresholdCeil(); next > hi {
		next = hi
	}
	if next != cur {
		c.threshold.Store(next)
		c.adaptations.Inc()
	}
}

// adaptStep is the per-interval threshold movement: an eighth of
// capacity, so the walk crosses its full range in a few seconds of
// sustained pressure without slamming between extremes on one probe.
func (c *Controller) adaptStep() int64 {
	if s := int64(c.capacity / 8); s > 1 {
		return s
	}
	return 1
}

// thresholdFloor is the tightest the walk may go: a quarter of
// capacity (at least 1), so low priority always has some path in and
// cannot be starved outright by a noisy probe.
func (c *Controller) thresholdFloor() int64 {
	if f := int64(c.capacity / 4); f > 1 {
		return f
	}
	return 1
}

// thresholdCeil is the loosest the walk may go: three quarters of
// capacity, preserving the final quarter for normal and high traffic
// even when latency is far under target.
func (c *Controller) thresholdCeil() int64 {
	hi := int64(3 * c.capacity / 4)
	if lo := c.thresholdFloor(); hi < lo {
		return lo
	}
	return hi
}
