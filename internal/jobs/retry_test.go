package jobs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock advances instantly: Sleep records the requested duration and
// moves Now forward, so tests assert exact backoff schedules without
// waiting them out.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

func (c *fakeClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.sleeps))
	copy(out, c.sleeps)
	return out
}

func TestRetryDelayWithoutJitterDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, Base: 100 * time.Millisecond, Max: 1 * time.Second}.withDefaults()
	p.Jitter = 0
	want := []time.Duration{
		100 * time.Millisecond, // attempt 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second, // capped
		1 * time.Second,
	}
	for i, w := range want {
		if got := p.Delay("k", 0, i+1); got != w {
			t.Errorf("Delay(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
	// Absurd attempt numbers must not overflow past the cap.
	if got := p.Delay("k", 0, 500); got != time.Second {
		t.Errorf("Delay(attempt 500) = %v, want %v", got, time.Second)
	}
}

func TestRetryDelayJitterIsDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{Jitter: 0.5}.withDefaults()
	for row := 0; row < 4; row++ {
		for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
			d1 := p.Delay("some-key", row, attempt)
			d2 := p.Delay("some-key", row, attempt)
			if d1 != d2 {
				t.Fatalf("Delay(row %d, attempt %d) not deterministic: %v != %v", row, attempt, d1, d2)
			}
			base := RetryPolicy{MaxAttempts: p.MaxAttempts, Base: p.Base, Max: p.Max}.Delay("some-key", row, attempt)
			if d1 < base || float64(d1) >= float64(base)*(1+p.Jitter)+1 {
				t.Errorf("Delay(row %d, attempt %d) = %v outside [%v, %v)", row, attempt, d1, base, time.Duration(float64(base)*1.5))
			}
		}
	}
}

func TestRetryDelayVariesAcrossKeysRows(t *testing.T) {
	p := RetryPolicy{Jitter: 1}.withDefaults()
	base := p.Delay("key-a", 0, 1)
	distinct := false
	for _, d := range []time.Duration{
		p.Delay("key-b", 0, 1),
		p.Delay("key-a", 1, 1),
	} {
		if d != base {
			distinct = true
		}
	}
	if !distinct {
		t.Error("jitter identical across keys and rows; hash not mixing inputs")
	}
}

func TestRetryDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 4 || p.Base != 100*time.Millisecond || p.Max != 5*time.Second {
		t.Errorf("unexpected defaults: %+v", p)
	}
}
