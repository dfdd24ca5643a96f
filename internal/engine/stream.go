package engine

import (
	"context"
	"encoding/json"
)

// This file is the engine's streaming execution surface. Stream executes
// a request through its RowPlan and hands each row's canonical JSON bytes
// to the caller as soon as it is computed, instead of buffering the whole
// Result. The emitted bytes are exactly the payloads the jobs journal
// checkpoints and Assemble consumes, so a streamed row is byte-identical
// to the corresponding row of the non-streaming JSON result, and the
// Result returned at the end is byte-identical (as JSON) to what Do would
// have produced.

// Stream computes req row by row, calling emit(i, data) for each row in
// order as soon as it is available. emit's error aborts the stream (a
// failed client write is treated as a cancellation). On success the
// assembled Result is returned and primed into the cache so a subsequent
// synchronous query is a hit. Streams bypass the result cache on read —
// a cached Result has no per-row bytes to replay — and are admitted
// against the same bounded queue as interactive requests: a stream that
// arrives with the queue full is shed with ErrOverloaded.
func (e *Engine) Stream(ctx context.Context, req Request, emit func(i int, data json.RawMessage) error) (*Result, error) {
	plan, err := e.Plan(req)
	if err != nil {
		e.errors.Inc()
		return nil, err
	}
	e.streams.Inc()

	// One pending slot covers the whole stream: rows run sequentially, so
	// the stream occupies at most one worker at a time, and Drain waits
	// for in-progress streams like any other admitted computation.
	if !e.admit(ctx, "stream", plan.req.Op) {
		e.errors.Inc()
		return nil, ErrOverloaded
	}
	// A disconnected streaming client never blocks Drain: ExecRow holds a
	// worker slot only per row, and pending is released on return.
	defer e.pending.Add(-1)

	fail := func(err error) (*Result, error) {
		e.failed(ctx, "stream", plan.req.Op, err)
		return nil, err
	}

	rows := make([]json.RawMessage, plan.Rows())
	for i := 0; i < plan.Rows(); i++ {
		data, err := e.ExecRow(ctx, plan, i)
		if err != nil {
			return fail(err)
		}
		rows[i] = data
		e.streamRows.Inc()
		if err := emit(i, data); err != nil {
			// The sink failed mid-stream (client went away): surface it as
			// a cancellation so overload diagnosis does not conflate dead
			// clients with slow computations.
			if ctx.Err() == nil {
				err = context.Canceled
			} else {
				err = ctx.Err()
			}
			return fail(err)
		}
	}
	res, err := plan.Assemble(rows, nil)
	if err != nil {
		e.errors.Inc()
		return nil, err
	}
	e.Prime(plan.Key(), res)
	return res, nil
}
