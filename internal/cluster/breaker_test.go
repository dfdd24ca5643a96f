package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
)

// fakeNow is a hand-advanced clock for deterministic breaker timing.
type fakeNow struct {
	mu sync.Mutex
	t  time.Time
}

// breakerState is peer's circuit position as Snapshot reports it (closed
// when the breaker does not track the peer).
func breakerState(b *Breaker, peer string) BreakerState {
	for _, s := range b.Snapshot() {
		if s.Peer == peer {
			return s.State
		}
	}
	return BreakerClosed
}

// budgetTokens is peer's retry balance as Snapshot reports it (a full
// burst when the budget does not track the peer).
func budgetTokens(b *RetryBudget, peer string) float64 {
	for _, s := range b.Snapshot() {
		if s.Peer == peer {
			return s.Tokens
		}
	}
	return b.burst
}

func newFakeNow() *fakeNow { return &fakeNow{t: time.Unix(1000, 0)} }

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

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeNow()
	b := NewBreaker(BreakerOptions{Threshold: 3, Cooldown: time.Second, Now: clk.Now})
	for i := 0; i < 2; i++ {
		b.Failure("p")
		if ok, probe := b.Allow("p"); !ok || probe {
			t.Fatalf("closed circuit after %d failures: allow=%v probe=%v, want plain admit", i+1, ok, probe)
		}
	}
	// A success resets the streak: two more failures must not open.
	b.Success("p")
	b.Failure("p")
	b.Failure("p")
	if got := breakerState(b, "p"); got != BreakerClosed {
		t.Fatalf("state = %s after reset+2 failures, want closed", got)
	}
	b.Failure("p")
	if got := breakerState(b, "p"); got != BreakerOpen {
		t.Fatalf("state = %s after threshold, want open", got)
	}
	if ok, _ := b.Allow("p"); ok {
		t.Fatal("open circuit allowed a request inside cooldown")
	}
	if b.opens.Value() != 1 || b.rejects.Value() != 1 {
		t.Fatalf("opens=%d rejects=%d, want 1 and 1", b.opens.Value(), b.rejects.Value())
	}
}

func TestBreakerHalfOpenProbeDecides(t *testing.T) {
	clk := newFakeNow()
	b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Second, Now: clk.Now})
	b.Failure("p")
	clk.Advance(time.Second)
	if got := breakerState(b, "p"); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", got)
	}
	// Exactly one probe is admitted at a time, and it is flagged as one.
	if ok, probe := b.Allow("p"); !ok || !probe {
		t.Fatalf("half-open admit = (%v, %v), want admitted probe", ok, probe)
	}
	if ok, _ := b.Allow("p"); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure re-opens for another full cooldown.
	b.Failure("p")
	if got := breakerState(b, "p"); got != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", got)
	}
	clk.Advance(time.Second)
	if ok, probe := b.Allow("p"); !ok || !probe {
		t.Fatalf("cooldown elapsed but admit = (%v, %v), want probe", ok, probe)
	}
	b.Success("p")
	if got := breakerState(b, "p"); got != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", got)
	}
	if b.recloses.Value() != 1 || b.probes.Value() != 2 || b.opens.Value() != 2 {
		t.Fatalf("recloses=%d probes=%d opens=%d, want 1/2/2", b.recloses.Value(), b.probes.Value(), b.opens.Value())
	}
	if b.OpenCount() != 0 {
		t.Fatalf("OpenCount = %d, want 0", b.OpenCount())
	}
}

func TestBreakerPeersAreIndependent(t *testing.T) {
	b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Hour, Now: newFakeNow().Now})
	b.Failure("sick")
	if ok, _ := b.Allow("sick"); ok {
		t.Fatal("sick peer's circuit should be open")
	}
	if ok, _ := b.Allow("healthy"); !ok {
		t.Fatal("healthy peer's circuit tripped by the sick one")
	}
	snap := b.Snapshot()
	if len(snap) != 2 || snap[0].Peer != "healthy" || snap[1].Peer != "sick" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[1].State != BreakerOpen || snap[1].Opens != 1 {
		t.Fatalf("sick entry = %+v", snap[1])
	}
}

func TestRetryBudgetSpendAndRefill(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	if !b.Spend("p") || !b.Spend("p") {
		t.Fatal("fresh bucket (burst 2) refused a retry")
	}
	if b.Spend("p") {
		t.Fatal("empty bucket granted a retry")
	}
	if b.Exhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", b.Exhausted())
	}
	// Two deposits refill one retry token.
	b.Deposit("p")
	b.Deposit("p")
	if !b.Spend("p") {
		t.Fatal("refilled bucket refused a retry")
	}
	// Deposits cap at the burst.
	for i := 0; i < 100; i++ {
		b.Deposit("q")
	}
	if got := budgetTokens(b, "q"); got != 2 {
		t.Fatalf("tokens = %g, want capped at 2", got)
	}
}

// statusServer is an httptest replica answering a fixed status until
// flipped healthy.
func failingServer(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Bool) {
	t.Helper()
	var calls atomic.Int64
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"result": &engine.Result{Op: engine.OpWhatIf}})
	}))
	t.Cleanup(ts.Close)
	return ts, &calls, &healthy
}

// The forward path's breaker: consecutive typed failures open the
// owner's circuit, after which Dispatch degrades to local compute with
// no network attempt at all, and a half-open probe after the cooldown
// re-closes it once the peer recovers.
func TestDispatchBreakerOpensSkipsThenRecloses(t *testing.T) {
	ts, calls, healthy := failingServer(t)
	clk := newFakeNow()
	n := newTestNode(t, "http://self:1", []string{ts.URL}, func(o *Options) {
		o.Retry = jobs.RetryPolicy{MaxAttempts: 1, Base: time.Millisecond, Max: time.Millisecond, Jitter: -1}
		o.BreakerThreshold = 3
		o.BreakerCooldown = time.Minute
		o.Now = clk.Now
	})
	key := keyOwnedBy(t, n, ts.URL)
	req := engine.Request{Op: engine.OpWhatIf}

	for i := 0; i < 3; i++ {
		if _, handled, err := n.Dispatch(context.Background(), key, req); handled || err != nil {
			t.Fatalf("Dispatch %d = (%v, %v), want degrade-to-local", i, handled, err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend calls = %d, want 3", got)
	}
	st := n.Status()
	if st.BreakerOpen != 1 {
		t.Fatalf("breaker_open = %d, want 1 (owner tripped)", st.BreakerOpen)
	}

	// Circuit open: the next dispatch must not touch the network.
	ctx, note := WithRouteNote(context.Background())
	if _, handled, err := n.Dispatch(ctx, key, req); handled || err != nil {
		t.Fatalf("Dispatch with open breaker = (%v, %v)", handled, err)
	}
	if note.Value() != RouteDegraded {
		t.Fatalf("route = %q, want %q", note.Value(), RouteDegraded)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("open circuit still reached the backend (%d calls)", got)
	}
	if st := n.Status(); st.BreakerSkips != 1 {
		t.Fatalf("breaker_skips = %d, want 1", st.BreakerSkips)
	}

	// Heal the peer, elapse the cooldown: the half-open probe re-closes.
	healthy.Store(true)
	clk.Advance(time.Minute)
	res, handled, err := n.Dispatch(context.Background(), key, req)
	if err != nil || !handled || res == nil {
		t.Fatalf("probe Dispatch = (%v, %v, %v), want forwarded success", res, handled, err)
	}
	st = n.Status()
	if st.BreakerOpen != 0 {
		t.Fatalf("breaker_open = %d after successful probe, want 0", st.BreakerOpen)
	}
	if n.breaker.recloses.Value() != 1 {
		t.Fatalf("recloses = %d, want 1", n.breaker.recloses.Value())
	}
}

// Retry budget: a sick owner burns its per-peer tokens, after which
// Dispatch stops retrying and degrades immediately — one attempt per
// request, never a retry storm.
func TestDispatchRetryBudgetExhaustionStopsRetries(t *testing.T) {
	ts, calls, _ := failingServer(t)
	n := newTestNode(t, "http://self:1", []string{ts.URL}, func(o *Options) {
		o.RetryBudgetRatio = 0.001
		o.RetryBudgetBurst = 2
		o.BreakerThreshold = 1000 // keep the breaker out of this test
	})
	key := keyOwnedBy(t, n, ts.URL)
	req := engine.Request{Op: engine.OpWhatIf}

	// First dispatch: 1 initial + 2 budgeted retries.
	if _, handled, err := n.Dispatch(context.Background(), key, req); handled || err != nil {
		t.Fatalf("Dispatch = (%v, %v)", handled, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend calls = %d, want 3 (budget allowed 2 retries)", got)
	}
	// Second dispatch: budget empty — initial attempt only.
	if _, handled, err := n.Dispatch(context.Background(), key, req); handled || err != nil {
		t.Fatalf("Dispatch = (%v, %v)", handled, err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("backend calls = %d, want 4 (no retries left)", got)
	}
	st := n.Status()
	if st.BudgetExhausted != 1 {
		t.Fatalf("retry_budget_exhausted = %d, want 1", st.BudgetExhausted)
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

// CancelProbe hands an admitted half-open probe slot back without a
// verdict: the circuit stays half-open, the slot frees for the next
// Allow, and Probing is visible in Snapshot while the probe is out.
func TestBreakerCancelProbeReleasesSlotWithoutVerdict(t *testing.T) {
	clk := newFakeNow()
	b := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Second, Now: clk.Now})
	b.Failure("p")
	clk.Advance(time.Second)
	if ok, probe := b.Allow("p"); !ok || !probe {
		t.Fatalf("half-open admit = (%v, %v), want admitted probe", ok, probe)
	}
	snap := b.Snapshot()
	if len(snap) != 1 || !snap[0].Probing || snap[0].State != BreakerHalfOpen {
		t.Fatalf("snapshot with probe in flight = %+v, want probing half-open", snap)
	}
	if snap[0].OpenAgeMS != 1000 {
		t.Fatalf("open_age_ms = %d, want 1000", snap[0].OpenAgeMS)
	}
	if ok, _ := b.Allow("p"); ok {
		t.Fatal("second probe admitted while the first is in flight")
	}

	b.CancelProbe("p")
	if got := breakerState(b, "p"); got != BreakerHalfOpen {
		t.Fatalf("state after CancelProbe = %s, want half-open (no verdict recorded)", got)
	}
	if snap := b.Snapshot(); snap[0].Probing {
		t.Fatalf("snapshot after CancelProbe = %+v, want probing released", snap[0])
	}
	// The freed slot admits a fresh probe, which can still re-close.
	if ok, probe := b.Allow("p"); !ok || !probe {
		t.Fatalf("admit after CancelProbe = (%v, %v), want a fresh probe", ok, probe)
	}
	b.Success("p")
	if got := breakerState(b, "p"); got != BreakerClosed {
		t.Fatalf("state after successful re-probe = %s, want closed", got)
	}
}
