package engine

import (
	"context"
	"sync"
)

// BatchItem is the outcome of one row of a DoBatch call.
type BatchItem struct {
	// Result is the row's computed (or cached) result; nil when Err is set.
	Result *Result
	// Err is the row's failure, if any.
	Err error
	// Cached reports the row was answered from the cache without waiting
	// on any computation.
	Cached bool
	// Shared reports the row piggybacked on another row's (or another
	// request's) in-flight computation rather than running its own.
	Shared bool
}

// DoBatch answers a batch of requests, one BatchItem per request in input
// order. Every row takes Do's own steps: lookup per row, then one miss per
// unique canonical key, run concurrently, whose outcome every duplicate row
// of that key shares. Rows never fail the batch: each row carries its own
// result or error, so under overload a batch partially succeeds exactly as
// N independent Do calls would. Batch rows never leave this replica: the
// batch's context is local-only, so a miss never takes the remote hook.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) []BatchItem {
	e.batches.Inc()
	e.batchRows.Add(uint64(len(reqs)))
	ctx = WithLocalOnly(ctx)
	items := make([]BatchItem, len(reqs))
	lead := make(map[string]int) // canonical key → the row that dispatches it
	var dups [][2]int            // {row, lead row} of each duplicate miss
	// Misses dispatch only once every row is looked up, so a duplicate row
	// always joins its key's lead row rather than racing it to the cache.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		norm, key, ent, err := e.lookup(ctx, reqs[i])
		switch {
		case err != nil:
			items[i].Err = err
		case ent != nil:
			items[i] = BatchItem{Result: ent.res, Cached: true}
		default:
			if j, ok := lead[key]; ok {
				dups = append(dups, [2]int{i, j})
				continue
			}
			lead[key] = i
			wg.Add(1)
			// The row, key and request go in as arguments: a closure over
			// the loop variables would move every row's Request to the heap.
			go func(i int, key string, norm Request) {
				defer wg.Done()
				<-start
				res, shared, err := e.miss(ctx, key, norm)
				items[i] = BatchItem{Result: res, Err: err, Shared: shared}
			}(i, key, norm)
		}
	}
	close(start)
	wg.Wait()
	for _, d := range dups {
		it := items[d[1]]
		if it.Err != nil {
			e.failed(ctx, "request", reqs[d[0]].Op, it.Err)
		} else {
			it.Shared = true
			e.shared.Inc()
		}
		items[d[0]] = it
	}
	return items
}
