package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
)

// ErrOverloaded is returned (without computing anything) when the engine's
// pending-request count exceeds the worker pool plus its bounded queue.
// Servers should map it to 503 with a Retry-After hint.
var ErrOverloaded = errors.New("engine: overloaded")

// PanicError is a panic recovered from a computation, surfaced as an
// ordinary error so one poisoned request cannot take the process down.
type PanicError struct {
	// Val is the value passed to panic; Stack is the goroutine stack at
	// recovery time.
	Val   any
	Stack []byte
}

// Error describes the recovered panic.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: computation panicked: %v", p.Val)
}

// admit reserves a pending slot for one computation, or sheds it when
// Workers+MaxQueue computations are already pending. what names the
// surface in the log line.
func (e *Engine) admit(ctx context.Context, what string, op Op) bool {
	if p := e.pending.Add(1); e.maxQueue >= 0 && p > int64(e.workers+e.maxQueue) {
		e.pending.Add(-1)
		e.sheds.Inc()
		e.log.Warn(what+" shed", "trace", obs.TraceID(ctx), "op", string(op),
			"pending", p-1, "workers", e.workers, "maxqueue", e.maxQueue)
		return false
	}
	return true
}

// failed counts one failed request. A client that disconnected (or
// otherwise canceled) is not a deadline: the two are counted apart so
// overload diagnosis does not conflate them.
func (e *Engine) failed(ctx context.Context, what string, op Op, err error) {
	e.errors.Inc()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		e.deadlines.Inc()
		e.log.Warn(what+" deadline exceeded", "trace", obs.TraceID(ctx), "op", string(op))
	case errors.Is(err, context.Canceled):
		e.canceled.Inc()
		e.log.Debug(what+" canceled", "trace", obs.TraceID(ctx), "op", string(op))
	}
}

// Health is a point-in-time serving-fitness classification.
type Health struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Reason explains a degraded status; empty when ok.
	Reason string `json:"reason,omitempty"`
}

// Health reports degraded when the worker pool is saturated (more requests
// pending than workers) or a panic was recovered within the given window.
func (e *Engine) Health(panicWindow time.Duration) Health {
	if p := e.pending.Load(); p > int64(e.workers) {
		return Health{
			Status: "degraded",
			Reason: fmt.Sprintf("worker pool saturated: %d pending on %d workers", p, e.workers),
		}
	}
	if last := e.lastPanic.Load(); last != 0 && panicWindow > 0 {
		if age := time.Since(time.Unix(0, last)); age < panicWindow {
			return Health{
				Status: "degraded",
				Reason: fmt.Sprintf("panic recovered %s ago", age.Round(time.Millisecond)),
			}
		}
	}
	return Health{Status: "ok"}
}

// Drain blocks until every admitted computation has finished (queued or
// running), or the context expires — the graceful-shutdown hook: stop
// admitting requests, then Drain before exiting.
func (e *Engine) Drain(ctx context.Context) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if e.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// chaosRows is the fault-injection scenario for the serving path itself:
// it panics, sleeps (honoring the request deadline), or fails on demand,
// so the panic-recovery, deadline, and load-shedding machinery can be
// exercised end to end — through the real registry, cache, and HTTP
// stack. The request-level knobs (panic, sleep, fail) fire on row 0,
// preserving the historical single-row behavior; rows/failrow/panicrow
// turn it into an n-row job whose designated row deterministically fails
// or panics on every attempt, which is how the jobs subsystem's retry
// exhaustion and graceful degradation are tested end to end.
func chaosRows(req Request, _ *netsim.Models) (*scenarioRows, error) {
	n := int(req.Params["rows"])
	if n < 1 {
		return nil, fmt.Errorf("rows %d must be positive", n)
	}
	failRow := int(req.Params["failrow"])
	panicRow := int(req.Params["panicrow"])
	return &scenarioRows{
		table: &Table{
			Title:   "chaos — serving-path fault injection",
			Headers: []string{"outcome"},
			Notes:   []string{"set panic=1, fail=1, or sleep=<seconds> to misbehave"},
		},
		n: n,
		row: func(ctx context.Context, _ *netsim.Sim, i int) ([]string, error) {
			if i == panicRow {
				panic(fmt.Sprintf("chaos scenario: injected panic on row %d", i))
			}
			if i == 0 {
				if req.Params["panic"] != 0 {
					panic("chaos scenario: injected panic")
				}
				if d := req.Params["sleep"]; d > 0 {
					select {
					case <-time.After(time.Duration(d * float64(time.Second))):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				if req.Params["fail"] != 0 {
					return nil, fmt.Errorf("chaos scenario: injected failure")
				}
			}
			if i == failRow {
				return nil, fmt.Errorf("chaos scenario: injected failure on row %d", i)
			}
			return []string{"ok"}, nil
		},
	}, nil
}
