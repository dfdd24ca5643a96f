package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func remoteTestRequest() Request {
	return Request{Op: OpWhatIf, GPUs: 2048}
}

// A remote hook that answers must win over local compute, prime the
// cache so the next identical query is a local hit, and count as a
// remote hit in Metrics.
func TestRemoteHandledPrimesCache(t *testing.T) {
	e := New(Options{CacheSize: 32, Workers: 2})
	req := remoteTestRequest()
	norm, err := req.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	key := norm.Key()

	canned := &Result{Op: norm.Op, Request: norm}
	var calls atomic.Int64
	e.SetRemote(func(ctx context.Context, k string, r Request) (*Result, bool, error) {
		calls.Add(1)
		if k != key {
			t.Errorf("hook key = %q, want %q", k, key)
		}
		return canned, true, nil
	})

	res, cached, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res != canned {
		t.Fatal("Do did not return the remote result")
	}
	if cached {
		t.Error("remote answer reported cached=true on first fetch")
	}
	if got := e.remoteHits.Value(); got != 1 {
		t.Errorf("RemoteHits = %d, want 1", got)
	}
	if got := e.computations.Value(); got != 0 {
		t.Errorf("Computations = %d, want 0 — the owner computed, not us", got)
	}

	// Second identical query: local cache hit, hook not consulted again.
	res2, cached, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("second Do: %v", err)
	}
	if !cached || res2 != canned {
		t.Error("second Do not served from the primed cache")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("hook called %d times, want 1", got)
	}
}

// handled=false means "compute locally" — degradation, not failure.
func TestRemoteUnhandledFallsBackToLocal(t *testing.T) {
	e := New(Options{CacheSize: 32, Workers: 2})
	e.SetRemote(func(ctx context.Context, k string, r Request) (*Result, bool, error) {
		return nil, false, nil
	})
	res, _, err := e.Do(context.Background(), remoteTestRequest())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res == nil || res.Cluster == nil {
		t.Fatal("local fallback produced no cluster summary")
	}
	if got := e.remoteHits.Value(); got != 0 {
		t.Errorf("RemoteHits = %d, want 0 for unhandled dispatch", got)
	}
	if got := e.computations.Value(); got != 1 {
		t.Errorf("Computations = %d, want 1", got)
	}
}

// handled=true with an error surfaces the error unchanged and caches
// nothing.
func TestRemoteHandledErrorSurfaces(t *testing.T) {
	e := New(Options{CacheSize: 32, Workers: 2})
	boom := errors.New("hop deadline exceeded")
	e.SetRemote(func(ctx context.Context, k string, r Request) (*Result, bool, error) {
		return nil, true, boom
	})
	if _, _, err := e.Do(context.Background(), remoteTestRequest()); !errors.Is(err, boom) {
		t.Fatalf("Do err = %v, want %v", err, boom)
	}
	// The failure must not poison the cache: removing the hook, the same
	// request computes locally rather than hitting a stale entry.
	e.SetRemote(nil)
	res, cached, err := e.Do(context.Background(), remoteTestRequest())
	if err != nil {
		t.Fatalf("Do after unhook: %v", err)
	}
	if cached {
		t.Error("failed remote dispatch left a cache entry behind")
	}
	if res == nil || res.Cluster == nil {
		t.Fatal("local compute after unhook produced no result")
	}
}

// WithLocalOnly bypasses the hook entirely — forwarded requests must
// never bounce to a third replica.
func TestRemoteLocalOnlyBypassesHook(t *testing.T) {
	e := New(Options{CacheSize: 32, Workers: 2})
	var calls atomic.Int64
	e.SetRemote(func(ctx context.Context, k string, r Request) (*Result, bool, error) {
		calls.Add(1)
		return nil, false, nil
	})
	if _, _, err := e.Do(WithLocalOnly(context.Background()), remoteTestRequest()); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("hook called %d times under WithLocalOnly, want 0", got)
	}
}

// DoBatch rows are answered by the ingress replica: a fresh batch row
// computes locally without consulting the hook, while Do of another fresh
// request still dispatches through it.
func TestRemoteBatchStaysLocal(t *testing.T) {
	e := New(Options{CacheSize: 32, Workers: 2})
	var calls atomic.Int64
	e.SetRemote(func(ctx context.Context, k string, r Request) (*Result, bool, error) {
		calls.Add(1)
		return nil, false, nil
	})
	items := e.DoBatch(context.Background(), []Request{remoteTestRequest()})
	if items[0].Err != nil {
		t.Fatalf("DoBatch: %v", items[0].Err)
	}
	if got := calls.Load(); got != 0 || e.remoteHits.Value() != 0 || e.computations.Value() != 1 {
		t.Errorf("hook calls/remote hits/computations = %d/%d/%d, want 0/0/1", got, e.remoteHits.Value(), e.computations.Value())
	}
	if _, _, err := e.Do(context.Background(), Request{Op: OpWhatIf, GPUs: 4096}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("hook called %d times by Do, want 1", got)
	}
}
