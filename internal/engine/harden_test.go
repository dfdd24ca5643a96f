package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func chaosReq(params map[string]float64) Request {
	return Request{Op: OpScenario, Scenario: "chaos", Params: params}
}

// A panicking computation must surface as an error — not kill the process —
// and bump the panic counter and degraded health.
func TestPanicRecovered(t *testing.T) {
	e := New(Options{Workers: 2})
	_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"panic": 1}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("panic error %q does not name the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if e.panics.Value() != 1 {
		t.Errorf("panics = %d, want 1", e.panics.Value())
	}
	h := e.Health(time.Minute)
	if h.Status != "degraded" || !strings.Contains(h.Reason, "panic") {
		t.Errorf("health after panic = %+v, want degraded with panic reason", h)
	}
	// Outside the window the panic no longer degrades health.
	if h := e.Health(time.Nanosecond); h.Status != "ok" {
		t.Errorf("health with expired window = %+v, want ok", h)
	}
	// The engine still serves requests afterwards.
	if _, _, err := e.Do(context.Background(), chaosReq(nil)); err != nil {
		t.Fatalf("engine dead after recovered panic: %v", err)
	}
}

// A panic in one row of a request fanned out across the pool is contained
// the same way.
func TestPanicInRowWorker(t *testing.T) {
	e := New(Options{Workers: 4})
	_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"rows": 8, "panicrow": 3}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if e.panics.Value() != 1 {
		t.Errorf("panics = %d, want 1", e.panics.Value())
	}
}

// Once Workers+MaxQueue computations are pending, further misses shed with
// ErrOverloaded instead of queuing unboundedly.
func TestLoadShedding(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 1})
	release := make(chan struct{})
	launched := make(chan struct{}, 8)
	// Occupy the worker and the one queue slot with distinct slow requests.
	// The sleeps must be long enough that both stay pending while the poll
	// loop below looks — on a single-core runner a millisecond window can
	// fall entirely between two samples.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		sleep := 0.2 * float64(i+1) // distinct keys, so no singleflight collapse
		go func() {
			launched <- struct{}{}
			<-release
			_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": sleep}))
			done <- err
		}()
	}
	<-launched
	<-launched
	close(release)
	// Wait until both are admitted (pending == 2).
	deadline := time.After(2 * time.Second)
	for e.Pending() < 2 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want 2", e.Pending())
		case <-time.After(time.Millisecond):
		}
	}
	_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.003}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if e.sheds.Value() != 1 {
		t.Errorf("sheds = %d, want 1", e.sheds.Value())
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	// With the pool drained, the same request is admitted again. (Drain
	// first: pending is released slightly after Do returns.)
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := e.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.003})); err != nil {
		t.Errorf("request after drain failed: %v", err)
	}
}

// A request deadline propagates into the computation: a slow scenario is
// cut off with DeadlineExceeded and counted.
func TestDeadlinePropagation(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := e.Do(ctx, chaosReq(map[string]float64{"sleep": 10}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if e.deadlines.Value() != 1 {
		t.Errorf("deadlines = %d, want 1", e.deadlines.Value())
	}
	// The abandoned computation eventually finishes and frees the pool.
	drainCtx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	if err := e.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Drain returns promptly when idle and honors its context when work hangs.
func TestDrain(t *testing.T) {
	e := New(Options{Workers: 1})
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 30})) //nolint:errcheck
	deadline := time.After(2 * time.Second)
	for e.Pending() == 0 {
		select {
		case <-deadline:
			t.Fatal("slow request never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with hung work = %v, want DeadlineExceeded", err)
	}
}

// Health reports saturation when more requests are pending than workers.
func TestHealthSaturation(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 4})
	if h := e.Health(time.Minute); h.Status != "ok" {
		t.Fatalf("idle health = %+v", h)
	}
	for i := 0; i < 3; i++ {
		sleep := 0.2 + 0.001*float64(i)
		go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": sleep})) //nolint:errcheck
	}
	deadline := time.After(2 * time.Second)
	for e.Pending() < 2 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want >= 2", e.Pending())
		case <-time.After(time.Millisecond):
		}
	}
	if h := e.Health(time.Minute); h.Status != "degraded" || !strings.Contains(h.Reason, "saturated") {
		t.Errorf("health under load = %+v, want degraded/saturated", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// An unbounded queue (negative MaxQueue) never sheds.
func TestUnboundedQueue(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: -1})
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		sleep := 0.001 * float64(i+1)
		go func() {
			_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": sleep}))
			done <- err
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Errorf("request failed: %v", err)
		}
	}
	if e.sheds.Value() != 0 {
		t.Errorf("sheds = %d, want 0", e.sheds.Value())
	}
}
