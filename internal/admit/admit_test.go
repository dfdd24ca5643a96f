package admit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"netpowerprop/internal/obs"
)

// fakeNow is an injectable clock.
type fakeNow struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeNow() *fakeNow {
	return &fakeNow{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeNow) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeNow) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"", Normal, true},
		{"normal", Normal, true},
		{"low", Low, true},
		{"high", High, true},
		{"urgent", Normal, false},
	}
	for _, c := range cases {
		got, ok := ParsePriority(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParsePriority(%q) = %v/%v, want %v/%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// With no rate configured, everything is admitted.
func TestQuotaDisabled(t *testing.T) {
	c := New(Options{})
	if c.rate > 0 {
		t.Fatal("quota enabled with zero rate")
	}
	for i := 0; i < 1000; i++ {
		if d := c.Admit("t", Normal, 100); !d.OK {
			t.Fatalf("request %d rejected with quotas disabled: %+v", i, d)
		}
	}
}

// A tenant burns its burst, is rejected with a refill-derived
// Retry-After, and is admitted again once the bucket refills.
func TestTokenBucketRefill(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 10, Burst: 20, Now: now.Now})
	if d := c.Admit("a", Normal, 20); !d.OK {
		t.Fatalf("initial burst rejected: %+v", d)
	}
	d := c.Admit("a", Normal, 5)
	if d.OK || d.Reason != ReasonQuota {
		t.Fatalf("over-quota admit = %+v, want quota rejection", d)
	}
	if d.RetryAfter != 500*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 500ms (5 tokens at 10/s)", d.RetryAfter)
	}
	now.Advance(500 * time.Millisecond)
	if d := c.Admit("a", Normal, 5); !d.OK {
		t.Fatalf("post-refill admit rejected: %+v", d)
	}
	// Refill never exceeds the burst.
	now.Advance(time.Hour)
	if d := c.Admit("a", Normal, 21); d.OK {
		t.Fatal("admit above burst succeeded after long idle")
	}
}

// Quotas meter rows, not requests: a batch spends its row count.
func TestQuotaCountsRows(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 10, Now: now.Now})
	if d := c.Admit("a", Normal, 8); !d.OK {
		t.Fatalf("8-row batch rejected: %+v", d)
	}
	if d := c.Admit("a", Normal, 8); d.OK {
		t.Fatal("second 8-row batch admitted with 2 tokens left")
	}
	if d := c.Admit("a", Normal, 2); !d.OK {
		t.Fatalf("2-row spend of the remainder rejected: %+v", d)
	}
}

// Tenants have independent buckets.
func TestTenantsIsolated(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 5, Now: now.Now})
	if d := c.Admit("a", Normal, 5); !d.OK {
		t.Fatalf("tenant a rejected: %+v", d)
	}
	if d := c.Admit("a", Normal, 1); d.OK {
		t.Fatal("tenant a admitted past its burst")
	}
	if d := c.Admit("b", Normal, 5); !d.OK {
		t.Fatalf("tenant b rejected after a's exhaustion: %+v", d)
	}
}

// Low priority pays double and is shed early under queue pressure.
func TestLowPriority(t *testing.T) {
	now := newFakeNow()
	var pending int64
	c := New(Options{
		RatePerSec: 1, Burst: 10, Now: now.Now,
		Capacity: 10, Pending: func() int64 { return pending },
	})
	// Double cost: 10 tokens cover only 5 low-priority rows.
	if d := c.Admit("a", Low, 5); !d.OK {
		t.Fatalf("low 5 rows rejected: %+v", d)
	}
	if d := c.Admit("a", Low, 1); d.OK {
		t.Fatal("low row admitted from an empty bucket")
	}
	// Early shed at half capacity, even with a full bucket.
	pending = 5
	d := c.Admit("b", Low, 1)
	if d.OK || d.Reason != ReasonLoad {
		t.Fatalf("low under load = %+v, want load shed", d)
	}
	// Normal sails through the same queue depth (engine is the authority).
	if d := c.Admit("b", Normal, 1); !d.OK {
		t.Fatalf("normal under half-full queue rejected: %+v", d)
	}
	if got := c.loadShed.Value(); got != 1 {
		t.Errorf("LoadShed = %d, want 1", got)
	}
}

// High priority overdraws to -burst before quota kicks in.
func TestHighPriorityOverdraw(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 5, Now: now.Now})
	if d := c.Admit("a", Normal, 5); !d.OK {
		t.Fatalf("burst spend rejected: %+v", d)
	}
	if d := c.Admit("a", Normal, 1); d.OK {
		t.Fatal("normal admitted from empty bucket")
	}
	if d := c.Admit("a", High, 5); !d.OK {
		t.Fatalf("high overdraw rejected: %+v", d)
	}
	d := c.Admit("a", High, 1)
	if d.OK || d.Reason != ReasonQuota {
		t.Fatalf("high past the overdraw floor = %+v, want quota rejection", d)
	}
	if d.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", d.RetryAfter)
	}
}

// A cost no full bucket could ever cover is rejected permanently — no
// Retry-After, distinct reason — instead of a finite wait the client
// would retry against forever.
func TestTooLargePermanentRejection(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 4, Now: now.Now})
	d := c.Admit("a", Normal, 5)
	if d.OK || d.Reason != ReasonTooLarge || d.RetryAfter != 0 {
		t.Fatalf("5 rows against burst 4 = %+v, want permanent too-large", d)
	}
	// Low pays double: 3 rows cost 6, above the 4-token capacity.
	d = c.Admit("a", Low, 3)
	if d.OK || d.Reason != ReasonTooLarge {
		t.Fatalf("3 low rows against burst 4 = %+v, want too-large", d)
	}
	// The rejections spent nothing: the full burst is still available.
	if d := c.Admit("a", Normal, 4); !d.OK {
		t.Fatalf("full-burst spend after too-large rejections: %+v", d)
	}
	// High may overdraw one burst, so its ceiling is 2×burst — 8 rows can
	// be admitted (by waiting, or here from a fresh bucket), 9 never can.
	if d := c.Admit("b", High, 8); !d.OK {
		t.Fatalf("8 high rows against burst 4 rejected: %+v", d)
	}
	d = c.Admit("c", High, 9)
	if d.OK || d.Reason != ReasonTooLarge {
		t.Fatalf("9 high rows against burst 4 = %+v, want too-large", d)
	}
	if got := c.tooLarge.Value(); got != 3 {
		t.Errorf("TooLarge = %d, want 3", got)
	}
}

// Refund restores shed rows' tokens, capped at burst, so a client
// resubmitting work the engine never did does not pay quota twice.
func TestRefund(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 10, Now: now.Now})
	if d := c.Admit("a", Normal, 10); !d.OK {
		t.Fatalf("burst spend rejected: %+v", d)
	}
	// The engine shed 6 of the 10 rows: the refund makes them spendable.
	c.Refund("a", Normal, 6)
	if d := c.Admit("a", Normal, 6); !d.OK {
		t.Fatalf("refunded rows rejected on resubmission: %+v", d)
	}
	if d := c.Admit("a", Normal, 1); d.OK {
		t.Fatal("refund credited more than the shed rows")
	}
	// A refund never fills past burst.
	c.Refund("a", Normal, 100)
	if d := c.Admit("a", Normal, 10); !d.OK {
		t.Fatalf("burst spend after oversized refund rejected: %+v", d)
	}
	if d := c.Admit("a", Normal, 1); d.OK {
		t.Fatal("oversized refund filled past burst")
	}
	// Unknown tenants (evicted buckets) and disabled quotas are no-ops.
	c.Refund("ghost", Normal, 5)
	if n := c.Tenants(); n != 1 {
		t.Errorf("refund created a bucket: %d tenants, want 1", n)
	}
	New(Options{}).Refund("x", Normal, 5)
	if got := c.refunded.Value(); got != 106 {
		t.Errorf("RefundedRows = %d, want 106", got)
	}
}

// The tenant table is bounded; the least recently seen bucket is evicted.
func TestTenantEviction(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 5, Now: now.Now})
	c.maxTenants = 3
	for i := 0; i < 3; i++ {
		c.Admit(fmt.Sprintf("t%d", i), Normal, 1)
		now.Advance(time.Millisecond)
	}
	c.Admit("t3", Normal, 1) // evicts t0, the stalest
	if n := c.Tenants(); n != 3 {
		t.Fatalf("tenants = %d, want 3 after eviction", n)
	}
	if got := c.evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// t0 returns with a fresh (full) bucket — the cost of bounding state.
	if d := c.Admit("t0", Normal, 5); !d.OK {
		t.Fatalf("re-added tenant rejected: %+v", d)
	}
}

// Metrics render under the netpowerprop_admit_* namespace.
func TestAdmitMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 2, Now: now.Now, Registry: reg})
	c.Admit("a", Normal, 2)
	c.Admit("a", Normal, 2)
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`netpowerprop_admit_allowed_total{class="normal"} 1`,
		`netpowerprop_admit_quota_rejected_total{class="normal"} 1`,
		"netpowerprop_admit_tenants 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// Concurrent admits on one tenant never oversell the bucket.
func TestAdmitConcurrent(t *testing.T) {
	now := newFakeNow()
	c := New(Options{RatePerSec: 1, Burst: 100, Now: now.Now})
	var wg sync.WaitGroup
	var admitted atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if c.Admit("hot", Normal, 1).OK {
					admitted.add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := admitted.load(); got != 100 {
		t.Fatalf("admitted %d rows from a 100-token bucket", got)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
