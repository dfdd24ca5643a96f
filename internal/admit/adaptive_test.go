package admit

import (
	"testing"
	"time"

	"netpowerprop/internal/obs"
)

// adaptiveFixture builds a controller whose p99 probe reads a synthetic
// obs histogram and whose clock is manual, so the walk is exercised
// deterministically.
type adaptiveFixture struct {
	c    *Controller
	h    *obs.Histogram
	now  time.Time
	load int64
}

// adaptiveBuckets are the fixture latency histogram's bounds, in seconds.
var adaptiveBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1}

func newAdaptiveFixture(t *testing.T, capacity int) *adaptiveFixture {
	t.Helper()
	f := &adaptiveFixture{
		h:   obs.NewHistogram(adaptiveBuckets),
		now: time.Unix(1000, 0),
	}
	f.c = New(Options{
		Capacity:  capacity,
		Pending:   func() int64 { return f.load },
		P99:       func() float64 { return f.h.Quantile(0.99) },
		TargetP99: 100 * time.Millisecond,
		Now:       func() time.Time { return f.now },
	})
	return f
}

// refill replaces the histogram's contents: obs histograms only
// accumulate, so swap in a fresh one with the given observations.
func (f *adaptiveFixture) refill(seconds float64, n int) {
	f.h = obs.NewHistogram(adaptiveBuckets)
	for i := 0; i < n; i++ {
		f.h.ObserveDuration(time.Duration(seconds * float64(time.Second)))
	}
}

func (f *adaptiveFixture) tick() { f.now = f.now.Add(time.Second) }

func TestAdaptiveShedDisabledIsFixedHalfCapacity(t *testing.T) {
	var load int64
	c := New(Options{Capacity: 16, Pending: func() int64 { return load }})
	if got := c.ShedThreshold(); got != 8 {
		t.Fatalf("fixed threshold = %d, want 8", got)
	}
	load = 7
	if d := c.Admit("t", Low, 1); !d.OK {
		t.Errorf("low shed at pending=7 under fixed threshold 8")
	}
	load = 8
	if d := c.Admit("t", Low, 1); d.OK || d.Reason != ReasonLoad {
		t.Errorf("low admitted at pending=8, want load shed; got %+v", d)
	}
}

func TestAdaptiveShedTightensAndClamps(t *testing.T) {
	f := newAdaptiveFixture(t, 32) // start 16, step 4, floor 8, ceil 24
	if got := f.c.ShedThreshold(); got != 16 {
		t.Fatalf("initial threshold = %d, want 16", got)
	}
	// p99 0.5s against a 0.1s target: above the 1.2× band edge, so each
	// elapsed interval tightens by one step until the floor.
	f.refill(0.5, 100)
	for i, want := range []int64{12, 8, 8} {
		f.tick()
		if got := f.c.ShedThreshold(); got != want {
			t.Fatalf("step %d: threshold = %d, want %d", i, got, want)
		}
	}
	if got := f.c.adaptations.Value(); got != 2 {
		t.Errorf("Adaptations = %d, want 2 (the clamped step is not a move)", got)
	}
	// The shed decision follows the walked threshold.
	f.load = 8
	if d := f.c.Admit("t", Low, 1); d.OK || d.Reason != ReasonLoad {
		t.Errorf("low admitted at pending=8 with threshold 8; got %+v", d)
	}
	f.load = 7
	if d := f.c.Admit("t", Low, 1); !d.OK {
		t.Error("low shed at pending=7 with threshold 8")
	}
}

func TestAdaptiveShedRelaxesAndClamps(t *testing.T) {
	f := newAdaptiveFixture(t, 32)
	// p99 5ms, far under the 0.8× band edge: relax a step per interval
	// up to the 3/4-capacity ceiling.
	f.refill(0.005, 100)
	for i, want := range []int64{20, 24, 24} {
		f.tick()
		if got := f.c.ShedThreshold(); got != want {
			t.Fatalf("step %d: threshold = %d, want %d", i, got, want)
		}
	}
	f.load = 23
	if d := f.c.Admit("t", Low, 1); !d.OK {
		t.Error("low shed at pending=23 with relaxed threshold 24")
	}
}

func TestAdaptiveShedHysteresisHolds(t *testing.T) {
	f := newAdaptiveFixture(t, 32)
	// p99 inside the (0.8×, 1.2×) band around the 100ms target: hold.
	f.refill(0.1, 100)
	for i := 0; i < 3; i++ {
		f.tick()
		if got := f.c.ShedThreshold(); got != 16 {
			t.Fatalf("threshold moved to %d inside the hysteresis band", got)
		}
	}
	if got := f.c.adaptations.Value(); got != 0 {
		t.Errorf("Adaptations = %d inside the band, want 0", got)
	}
}

func TestAdaptiveShedRateLimited(t *testing.T) {
	f := newAdaptiveFixture(t, 32)
	f.refill(0.5, 100)
	// Repeated probes within one interval must not walk more than once.
	f.now = f.now.Add(time.Second)
	for i := 0; i < 5; i++ {
		if got := f.c.ShedThreshold(); got != 12 {
			t.Fatalf("probe %d: threshold = %d, want a single 16→12 step", i, got)
		}
	}
	// An empty histogram (no observations yet) holds rather than walks.
	f.refill(0, 0)
	f.tick()
	if got := f.c.ShedThreshold(); got != 12 {
		t.Errorf("threshold = %d after empty probe, want held 12", got)
	}
}
