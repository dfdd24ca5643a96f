package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/obs"
)

// fastRetry is a test retry policy that never really sleeps (the node's
// sleeper is overridden anyway) and has no jitter.
var fastRetry = jobs.RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond, Jitter: -1}

// metric renders reg and returns the value of one series, named as it
// renders (family name and label set, e.g. `x_total{k="v"}`).
func metric(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not rendered", series)
	return 0
}

// newTestNode builds a Node over the given peer base URLs with retries
// made instant, hedging disabled unless asked for, and failing peers
// kept on the ring unless a test lowers n.gossip.failAfter.
func newTestNode(t *testing.T, self string, peers []string, mutate func(*Options)) *Node {
	t.Helper()
	opts := Options{
		Self:       self,
		Peers:      peers,
		Seed:       17,
		Retry:      fastRetry,
		HedgeDelay: -1,
		Logger:     obs.Nop(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	n := New(opts)
	n.sleep = func(context.Context, time.Duration) error { return nil }
	n.gossip.failAfter = 100
	return n
}

// keyOwnedBy finds a key the ring assigns to addr.
func keyOwnedBy(t *testing.T, n *Node, addr string) string {
	t.Helper()
	ring := n.Ring()
	want := normalizeAddr(addr)
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if ring.Owner(k) == want {
			return k
		}
	}
	t.Fatalf("no key owned by %s among 100000 candidates", addr)
	return ""
}

// resultServer is an httptest replica answering the serve JSON envelope.
func resultServer(t *testing.T, hook func(r *http.Request)) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			hook(r)
		}
		var req engine.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"cached": false,
			"result": &engine.Result{Op: req.Op, Request: req},
		})
	}))
}

func TestDispatchLocalWhenSelfOwns(t *testing.T) {
	ts := resultServer(t, nil)
	defer ts.Close()
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	key := keyOwnedBy(t, n, "http://self:1")
	ctx, note := WithRouteNote(context.Background())
	res, handled, err := n.Dispatch(ctx, key, engine.Request{Op: engine.OpWhatIf})
	if res != nil || handled || err != nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want (nil, false, nil)", res, handled, err)
	}
	if note.Value() != RouteLocal {
		t.Fatalf("route = %q, want %q", note.Value(), RouteLocal)
	}
}

func TestDispatchForwardsToOwnerWithAdmitAndTraceHeaders(t *testing.T) {
	var gotAdmit, gotTrace, gotPath atomic.Value
	ts := resultServer(t, func(r *http.Request) {
		gotAdmit.Store(r.Header.Get("X-Forwarded-Admit"))
		gotTrace.Store(r.Header.Get("X-Trace-Id"))
		gotPath.Store(r.URL.Path)
	})
	defer ts.Close()
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	key := keyOwnedBy(t, n, ts.URL)
	ctx := obs.WithTraceID(context.Background(), "trace-forward-1")
	ctx, note := WithRouteNote(ctx)
	req := engine.Request{Op: engine.OpWhatIf, GPUs: 2048}
	res, handled, err := n.Dispatch(ctx, key, req)
	if err != nil || !handled || res == nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want forwarded result", res, handled, err)
	}
	if res.Op != engine.OpWhatIf {
		t.Fatalf("result op = %q", res.Op)
	}
	if note.Value() != RouteForwarded {
		t.Fatalf("route = %q, want %q", note.Value(), RouteForwarded)
	}
	if gotAdmit.Load() != "1" {
		t.Fatalf("X-Forwarded-Admit = %v, want 1 (owner must not re-charge admission)", gotAdmit.Load())
	}
	if gotTrace.Load() != "trace-forward-1" {
		t.Fatalf("X-Trace-Id = %v, want trace-forward-1", gotTrace.Load())
	}
	if gotPath.Load() != "/v1/whatif" {
		t.Fatalf("path = %v, want /v1/whatif", gotPath.Load())
	}
	if got := n.Status().Forwarded; got != 1 {
		t.Fatalf("forwarded counter = %d, want 1", got)
	}
}

func TestDispatchScenarioForwardPath(t *testing.T) {
	var gotPath atomic.Value
	ts := resultServer(t, func(r *http.Request) { gotPath.Store(r.URL.Path) })
	defer ts.Close()
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	key := keyOwnedBy(t, n, ts.URL)
	req := engine.Request{Op: engine.OpScenario, Scenario: "chaos"}
	if _, handled, err := n.Dispatch(context.Background(), key, req); err != nil || !handled {
		t.Fatalf("Dispatch = (_, %v, %v)", handled, err)
	}
	if gotPath.Load() != "/v1/scenarios/chaos" {
		t.Fatalf("path = %v, want /v1/scenarios/chaos", gotPath.Load())
	}
}

func TestDispatchRetriesWithSeededBackoffThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"result": &engine.Result{Op: engine.OpWhatIf},
		})
	}))
	defer ts.Close()
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	var slept []time.Duration
	n.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	key := keyOwnedBy(t, n, ts.URL)
	res, handled, err := n.Dispatch(context.Background(), key, engine.Request{Op: engine.OpWhatIf})
	if err != nil || !handled || res == nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want success on retry", res, handled, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("owner saw %d calls, want 2", calls.Load())
	}
	if len(slept) != 1 || slept[0] != fastRetry.Delay(key, 0, 1) {
		t.Fatalf("backoff sleeps = %v, want exactly [%v] (the policy's deterministic delay)",
			slept, fastRetry.Delay(key, 0, 1))
	}
	if st := n.Status(); st.Retries != 1 || st.ForwardErrors != 1 {
		t.Fatalf("retries=%d forward_errors=%d, want 1 and 1", st.Retries, st.ForwardErrors)
	}
}

func TestDispatchDegradesToLocalWhenOwnerUnreachable(t *testing.T) {
	ts := resultServer(t, nil)
	ts.Close() // owner is dead from the start: connections refused
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	key := keyOwnedBy(t, n, ts.URL)
	ctx, note := WithRouteNote(context.Background())
	res, handled, err := n.Dispatch(ctx, key, engine.Request{Op: engine.OpWhatIf})
	if res != nil || handled || err != nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want graceful (nil, false, nil)", res, handled, err)
	}
	if note.Value() != RouteDegraded {
		t.Fatalf("route = %q, want %q", note.Value(), RouteDegraded)
	}
	st := n.Status()
	if st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
	if st.ForwardErrors != uint64(fastRetry.MaxAttempts) {
		t.Fatalf("forward_errors = %d, want %d (every attempt failed)", st.ForwardErrors, fastRetry.MaxAttempts)
	}
}

func TestDispatchReroutesAfterFailureVerdictRemapsRing(t *testing.T) {
	ts := resultServer(t, nil)
	ts.Close()
	// failAfter 1: the first failed hop kills the owner in gossip, the
	// retry re-reads the ring, and the key lands on self — graceful
	// degradation through remap rather than exhausted retries.
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	n.gossip.failAfter = 1
	key := keyOwnedBy(t, n, ts.URL)
	ctx, note := WithRouteNote(context.Background())
	res, handled, err := n.Dispatch(ctx, key, engine.Request{Op: engine.OpWhatIf})
	if res != nil || handled || err != nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want local fallback", res, handled, err)
	}
	if note.Value() != RouteLocal {
		t.Fatalf("route = %q, want %q (ring remapped to self)", note.Value(), RouteLocal)
	}
	if st, _ := gossipState(n.gossip, normalizeAddr(ts.URL)); st.State != HealthDead {
		t.Fatalf("owner state = %s, want dead after failAfter=1", st.State)
	}
	if got := n.Ring().Members(); len(got) != 1 || got[0] != "http://self:1" {
		t.Fatalf("ring members = %v, want just self", got)
	}
}

func TestDispatchHedgeWinsOverStalledOwner(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		json.NewEncoder(w).Encode(map[string]any{"result": &engine.Result{Op: engine.OpWhatIf}})
	}))
	defer slow.Close()
	defer close(release)
	fast := resultServer(t, nil)
	defer fast.Close()
	n := newTestNode(t, "http://self:1", []string{slow.URL, fast.URL}, func(o *Options) {
		o.HedgeDelay = 5 * time.Millisecond
	})
	key := keyOwnedBy(t, n, slow.URL)
	// Sanity: with three ring members the hedge target must be the fast
	// replica (owner and self are skipped).
	if succ := n.Ring().Successor(key, normalizeAddr(slow.URL), "http://self:1"); succ != normalizeAddr(fast.URL) {
		t.Fatalf("successor = %q, want %q", succ, fast.URL)
	}
	res, handled, err := n.Dispatch(context.Background(), key, engine.Request{Op: engine.OpWhatIf})
	if err != nil || !handled || res == nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want hedged success", res, handled, err)
	}
	st := n.Status()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d hedge_wins=%d, want 1 and 1", st.Hedges, st.HedgeWins)
	}
}

func TestDispatchHonorsRequestDeadline(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	key := keyOwnedBy(t, n, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, handled, err := n.Dispatch(ctx, key, engine.Request{Op: engine.OpWhatIf})
	if res != nil || !handled || err == nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want (nil, true, deadline error)", res, handled, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline ignored: took %v", elapsed)
	}
}

func TestNodePrimesEngineCacheThroughRemoteHook(t *testing.T) {
	var ownerCalls atomic.Int64
	ts := resultServer(t, func(*http.Request) { ownerCalls.Add(1) })
	defer ts.Close()
	n := newTestNode(t, "http://self:1", []string{ts.URL}, nil)
	reg := obs.NewRegistry()
	e := engine.New(engine.Options{Registry: reg})
	e.SetRemote(n.Dispatch)
	// Find a whatif request owned by the remote replica.
	var req engine.Request
	found := false
	for g := 1; g <= 4096; g++ {
		cand, err := engine.Request{Op: engine.OpWhatIf, GPUs: 1024 * g}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if n.Ring().Owner(cand.Key()) == normalizeAddr(ts.URL) {
			req, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate request owned by the remote replica")
	}
	if _, cached, err := e.Do(context.Background(), req); err != nil || cached {
		t.Fatalf("first Do = (cached=%v, err=%v)", cached, err)
	}
	if _, cached, err := e.Do(context.Background(), req); err != nil || !cached {
		t.Fatalf("second Do = (cached=%v, err=%v), want cache hit primed by the forward", cached, err)
	}
	if ownerCalls.Load() != 1 {
		t.Fatalf("owner saw %d calls, want 1 (second request served from primed cache)", ownerCalls.Load())
	}
	remote := metric(t, reg, "netpowerprop_engine_remote_hits_total")
	comps := metric(t, reg, "netpowerprop_engine_computations_total")
	if remote != 1 || comps != 0 {
		t.Fatalf("engine metrics remote_hits=%v computations=%v, want 1 and 0", remote, comps)
	}
}

// The default incarnation stamp routes through the injectable clock, so
// a seeded run with a fake clock is fully deterministic — no raw
// time.Now leaks into gossip state (regression).
func TestDefaultIncarnationUsesInjectedClock(t *testing.T) {
	fixed := time.Unix(1234, 5678)
	n := New(Options{
		Self:  "127.0.0.1:9001",
		Peers: []string{"127.0.0.1:9002"},
		Now:   func() time.Time { return fixed },
	})
	st, ok := gossipState(n.gossip, n.Self())
	if !ok {
		t.Fatal("gossiper has no state for self")
	}
	if st.Incarnation != fixed.UnixNano() {
		t.Errorf("incarnation = %d, want the fake clock's %d", st.Incarnation, fixed.UnixNano())
	}
}
