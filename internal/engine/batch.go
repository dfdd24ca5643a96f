package engine

import (
	"context"
	"errors"
	"sync"
)

// This file is the engine's batched execution surface. DoBatch answers
// many what-if requests in one call, amortizing the per-request costs the
// interactive path pays N times: one normalization/keying pass, one cache
// pass with a single counter update, duplicate keys collapsed before
// dispatch (not just during flight), and one pending-admission decision
// per unique miss so the shed/Retry-After machinery sees the batch's true
// row count immediately. Rows never fail the batch: each row carries its
// own result or error, mirroring what N independent Do calls would have
// returned.

// BatchItem is the outcome of one row of a DoBatch call.
type BatchItem struct {
	// Result is the row's computed (or cached) result; nil when Err is set.
	Result *Result `json:"result,omitempty"`
	// Err is the row's failure, if any.
	Err error `json:"-"`
	// Cached reports the row was answered from the cache without waiting
	// on any computation.
	Cached bool `json:"cached,omitempty"`
	// Shared reports the row piggybacked on another row's (or another
	// request's) in-flight computation rather than running its own.
	Shared bool `json:"shared,omitempty"`
}

// batchGroup collects the batch rows that normalized to one canonical key.
type batchGroup struct {
	req    Request
	idxs   []int
	res    *Result
	err    error
	shared bool
	shed   bool
}

// DoBatch answers a batch of requests, one BatchItem per request in input
// order. Normalization, cache lookup, duplicate collapsing, and admission
// are amortized across the batch; unique cache misses are dispatched
// through the shared singleflight group and the same bounded worker pool
// interactive requests use. Admission is per unique miss: rows beyond the
// queue bound are shed individually with ErrOverloaded while the rest of
// the batch proceeds, so a batch can partially succeed under overload
// exactly as N independent requests would.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) []BatchItem {
	e.batches.Add(1)
	e.batchRows.Add(uint64(len(reqs)))
	items := make([]BatchItem, len(reqs))

	// Pass 1: normalize, key, and consult the cache for every row,
	// grouping the misses by canonical key. Counter updates are batched.
	groups := make(map[string]*batchGroup)
	var order []string // deterministic dispatch/fan-out order
	var hits, misses, errs uint64
	for i := range reqs {
		norm, err := reqs[i].Normalize()
		if err != nil {
			items[i].Err = err
			errs++
			continue
		}
		key := norm.Key()
		if res, ok := e.cache.Get(key); ok {
			items[i] = BatchItem{Result: res, Cached: true}
			hits++
			continue
		}
		misses++
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{req: norm}
			groups[key] = g
			order = append(order, key)
		}
		g.idxs = append(g.idxs, i)
	}
	if hits > 0 {
		e.hits.Add(hits)
	}
	if misses > 0 {
		e.misses.Add(misses)
	}
	if errs > 0 {
		e.errors.Add(errs)
	}
	if len(order) == 0 {
		return items
	}
	if err := ctx.Err(); err != nil {
		for _, key := range order {
			g := groups[key]
			for _, i := range g.idxs {
				items[i].Err = err
				e.failed(ctx, "batch row", g.req.Op, err)
			}
		}
		return items
	}

	// Pass 2: admit unique misses against the bounded queue. Reserving
	// every admitted row in pending before any compute starts is what
	// makes batch Retry-After row-aware: a 100-row batch raises the queue
	// depth by its unique-miss count at once, not by 1. admitted must be
	// a fresh slice, not order[:0]: Pass 4 still ranges over order, and
	// aliasing would let an admitted key overwrite an earlier shed key
	// whenever pending fluctuates mid-loop under concurrent load.
	admitted := make([]string, 0, len(order))
	for _, key := range order {
		g := groups[key]
		if !e.admit(ctx, "batch row", g.req.Op) {
			g.shed = true
			continue
		}
		admitted = append(admitted, key)
	}

	// Pass 3: dispatch admitted unique keys through the shared
	// singleflight group. Worker-pool width still bounds concurrent
	// computation (every row acquires a slot); the goroutines here only
	// hold queue positions already reserved in pending.
	var wg sync.WaitGroup
	for _, key := range admitted {
		g := groups[key]
		wg.Add(1)
		go func(key string, g *batchGroup) {
			defer wg.Done()
			defer e.pending.Add(-1)
			g.res, g.shared, g.err = e.flight.do(ctx, key, func() (*Result, error) {
				return e.compute(ctx, key, g.req)
			})
		}(key, g)
	}
	wg.Wait()

	// Pass 4: fan each group's outcome to its rows, in input order within
	// the group. The first row of a computed group "owns" the computation;
	// the rest shared it, matching what the interactive path would report
	// had the same rows arrived concurrently.
	var shared, rowErrs, deadlines, canceled uint64
	for _, key := range order {
		g := groups[key]
		for j, i := range g.idxs {
			switch {
			case g.shed:
				items[i].Err = ErrOverloaded
				rowErrs++
			case g.err != nil:
				items[i].Err = g.err
				rowErrs++
				switch {
				case errors.Is(g.err, context.DeadlineExceeded):
					deadlines++
				case errors.Is(g.err, context.Canceled):
					canceled++
				}
			default:
				items[i] = BatchItem{Result: g.res, Shared: g.shared || j > 0}
				if items[i].Shared {
					shared++
				}
			}
		}
	}
	if shared > 0 {
		e.shared.Add(shared)
	}
	if rowErrs > 0 {
		e.errors.Add(rowErrs)
	}
	if deadlines > 0 {
		e.deadlines.Add(deadlines)
	}
	if canceled > 0 {
		e.canceled.Add(canceled)
	}
	return items
}
