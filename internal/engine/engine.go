// Package engine is the concurrent what-if query service over the cluster
// model: it wraps core, fattree, device, and the §4 mechanism simulations
// behind a typed request/response API with a canonical request-key
// normalizer, a sharded LRU result cache, singleflight deduplication of
// concurrent identical queries, and a bounded worker pool with
// per-request context cancellation. cmd/powerprop, cmd/netsim, and
// cmd/serve all route through this package, so CLI and server are
// guaranteed to produce identical numbers.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
)

// Options configures an Engine. Zero values select sensible defaults.
type Options struct {
	// CacheSize is the total result-cache capacity in entries
	// (default 1024).
	CacheSize int
	// CacheShards is the number of LRU shards (default 16).
	CacheShards int
	// Workers bounds concurrently computing rows (default GOMAXPROCS):
	// every row of every request, batch, stream, and job takes one slot.
	// Queued rows honor their context while waiting for a slot. Each slot
	// keeps one warm simulator, of at most netsim.WarmCap bytes between
	// rows.
	Workers int
	// MaxQueue bounds requests waiting for a worker slot: once
	// Workers+MaxQueue requests are pending, further misses are shed with
	// ErrOverloaded instead of queuing without bound. Zero selects
	// 4×Workers; negative disables shedding.
	MaxQueue int
	// Logger receives structured engine events (cache hits/misses at
	// debug, sheds and deadlines at warn, recovered panics at error),
	// each tagged with the request's trace ID. Nil discards.
	Logger *slog.Logger
	// Registry receives every engine metric under the
	// netpowerprop_engine_* namespace, including per-op latency
	// histograms. Register at most one engine per registry. Nil keeps the
	// metrics unregistered.
	Registry *obs.Registry
	// Models, when non-nil, are the co-simulation hooks every scenario
	// simulation attaches (see internal/cosim). Request keys do not encode
	// them, so one engine's cache must only ever hold results of one model
	// configuration.
	Models *netsim.Models
}

// Engine answers what-if requests, memoizing results by canonical key.
type Engine struct {
	cache  *cache
	flight *flightGroup
	// slots is the worker pool: Workers slots, each a warm simulator that
	// the slot's rows run on in turn. A row holds its slot, and so has the
	// simulator to itself, for its whole computation.
	slots    chan *netsim.Sim
	workers  int
	maxQueue int // negative: unbounded
	models   *netsim.Models

	// pending counts admitted computations (queued or running); it gates
	// load shedding and Drain. inFlight counts rows holding a worker slot;
	// lastPanic (UnixNano) feeds Health.
	pending   atomic.Int64
	inFlight  atomic.Int64
	lastPanic atomic.Int64
	// remote holds the cluster dispatch hook (see remote.go).
	remote atomic.Pointer[remoteBox]
	// The counters and histograms behind /metrics, set by instrument
	// (always non-nil after New). opHist holds one compute histogram per
	// registered Op; the map is built once and never written afterwards,
	// so lookups are safe without a lock.
	hits, misses, shared, computations, errors *obs.Counter
	panics, sheds, deadlines, canceled         *obs.Counter
	rowsExecuted, batches, batchRows           *obs.Counter
	streams, streamRows, remoteHits            *obs.Counter
	opHist                                     map[Op]*obs.Histogram
	rowHist                                    *obs.Histogram
	log                                        *slog.Logger
}

// allOps lists every registered operation, for per-op metric setup.
var allOps = []Op{OpWhatIf, OpTable3, OpFig3, OpFig4, OpSweep, OpCost, OpScenario}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 1024
	}
	if opts.CacheShards <= 0 {
		opts.CacheShards = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 4 * opts.Workers
	}
	e := &Engine{
		cache:    newCache(opts.CacheSize, opts.CacheShards),
		flight:   newFlightGroup(),
		slots:    make(chan *netsim.Sim, opts.Workers),
		workers:  opts.Workers,
		maxQueue: opts.MaxQueue,
		models:   opts.Models,
	}
	for range opts.Workers {
		e.slots <- new(netsim.Sim)
	}
	e.instrument(opts.Logger, opts.Registry)
	return e
}

// Workers is the size of the bounded compute pool; servers use it to
// derive Retry-After hints from queue depth.
func (e *Engine) Workers() int { return e.workers }

// Capacity is the admission bound — Workers+MaxQueue, the pending count
// at which further misses are shed — or -1 when the queue is unbounded.
// Admission layers derive early-shed thresholds from it.
func (e *Engine) Capacity() int {
	if e.maxQueue < 0 {
		return -1
	}
	return e.workers + e.maxQueue
}

// Pending is the live count of admitted computations (queued or
// running) — the cheap probe admission layers poll on every request.
func (e *Engine) Pending() int64 { return e.pending.Load() }

// MeanCompute is the mean worker time of the computations run so far, in
// seconds; ok is false before the first one. Servers derive Retry-After
// hints from it.
func (e *Engine) MeanCompute() (seconds float64, ok bool) {
	n := e.computations.Value()
	if n == 0 {
		return 0, false
	}
	return e.computeSeconds() / float64(n), true
}

// computeSeconds is the cumulative worker time of computations: the sum
// of the per-op compute histograms, taken in allOps order.
func (e *Engine) computeSeconds() float64 {
	var sum float64
	for _, op := range allOps {
		sum += e.opHist[op].Sum()
	}
	return sum
}

// Do answers a request: normalize, consult the cache, collapse concurrent
// identical queries, then plan the request and run its rows through the
// worker pool (at most Workers rows compute at once, engine-wide). cached
// reports whether the result was served from the cache without waiting on
// any computation.
func (e *Engine) Do(ctx context.Context, req Request) (res *Result, cached bool, err error) {
	res, ent, err := e.do(ctx, req)
	return res, ent != nil, err
}

// DoJSON is Do for a server that writes the result one level deep in an
// indented JSON envelope: body is res as json.MarshalIndent(res, "  ", "  ")
// encodes it, or nil if res cannot be encoded. On a cache hit the bytes
// are memoized on the cache entry: the entry's first hit encodes them,
// every later hit shares them, and they are freed with the entry. A miss
// encodes its result afresh and stores nothing.
func (e *Engine) DoJSON(ctx context.Context, req Request) (body []byte, cached bool, err error) {
	res, ent, err := e.do(ctx, req)
	switch {
	case err != nil:
		return nil, false, err
	case ent != nil:
		return ent.indented(), true, nil
	}
	return indentJSON(res), false, nil
}

// do is Do's lookup then miss; ent is the cache entry of a hit.
func (e *Engine) do(ctx context.Context, req Request) (res *Result, ent *cacheEntry, err error) {
	norm, key, ent, err := e.lookup(ctx, req)
	switch {
	case err != nil:
		return nil, nil, err
	case ent != nil:
		return ent.res, ent, nil
	}
	res, _, err = e.miss(ctx, key, norm)
	return res, nil, err
}

// lookup is the first step of every Do and DoBatch row: normalize, fail a
// done context before the cache, key, and probe the cache. It returns the
// cache entry on a hit, the error on a failure, and otherwise the
// normalized request and its canonical key for miss.
func (e *Engine) lookup(ctx context.Context, req Request) (norm Request, key string, ent *cacheEntry, err error) {
	norm, err = req.Normalize()
	if err != nil {
		e.errors.Inc()
		return norm, "", nil, err
	}
	if err := ctx.Err(); err != nil {
		e.failed(ctx, "request", norm.Op, err)
		return norm, "", nil, err
	}
	key = norm.Key()
	if ent := e.cache.Get(key); ent != nil {
		e.hits.Inc()
		if e.log.Enabled(ctx, slog.LevelDebug) {
			e.log.Debug("cache hit", "trace", obs.TraceID(ctx), "op", string(norm.Op))
		}
		return norm, key, ent, nil
	}
	e.misses.Inc()
	if e.log.Enabled(ctx, slog.LevelDebug) {
		e.log.Debug("cache miss", "trace", obs.TraceID(ctx), "op", string(norm.Op))
	}
	return norm, key, nil, nil
}

// miss answers a lookup miss through the singleflight group, so one
// dispatch serves every concurrent caller of the key. shared reports that
// this caller waited on another caller's dispatch.
func (e *Engine) miss(ctx context.Context, key string, norm Request) (res *Result, shared bool, err error) {
	res, shared, err = e.flight.do(ctx, key, func() (*Result, error) {
		// A caller whose lookup missed before an earlier flight of this key
		// cached its result, but whose flight began after that one ended,
		// is answered from the cache rather than computing again.
		if ent := e.cache.Get(key); ent != nil {
			return ent.res, nil
		}
		return e.dispatch(ctx, key, norm)
	})
	if shared {
		e.shared.Inc()
	}
	if err != nil {
		e.failed(ctx, "request", norm.Op, err)
		return nil, shared, err
	}
	return res, shared, nil
}

// computeAndCache runs one computation through the worker pool. The
// caller's context is honored while queued and before every row: a caller
// whose context ends returns at once, and the computation stops once its
// running rows finish. Admission is bounded: when Workers+MaxQueue
// computations are already pending, the request is shed immediately with
// ErrOverloaded rather than queued without limit.
func (e *Engine) computeAndCache(ctx context.Context, key string, req Request) (*Result, error) {
	if !e.admit(ctx, "request", req.Op) {
		return nil, ErrOverloaded
	}
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer e.pending.Add(-1)
		res, err := e.compute(ctx, key, req)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// compute plans a normalized request, runs its rows through the worker
// pool, updates the compute counters, and populates the cache on success.
// Admission (pending accounting and shedding) is computeAndCache's.
func (e *Engine) compute(ctx context.Context, key string, req Request) (*Result, error) {
	plan, err := planRows(req, e.models)
	if err != nil {
		return nil, err
	}
	res, busy, err := e.runPlan(ctx, plan)
	if h := e.opHist[req.Op]; h != nil {
		h.ObserveDuration(busy)
	}
	e.computations.Inc()
	if err == nil {
		e.cache.Add(key, res)
	}
	return res, err
}

// runPlan computes every row of a plan and assembles the typed values.
// Up to Workers rows run at once, each in its own pool slot, so a
// many-row request spreads across idle workers while a busy pool
// interleaves it row by row with other requests. Rows are handed out in
// index order and the first failure stops further hand-outs, so the error
// returned is the lowest-index one, as a serial loop would report. busy
// is the summed time rows held a slot.
func (e *Engine) runPlan(ctx context.Context, p *RowPlan) (res *Result, busy time.Duration, err error) {
	r := &planRun{e: e, ctx: ctx, p: p, vals: make([]any, p.n), errs: make([]error, p.n)}
	var wg sync.WaitGroup
	for w := 1; w < min(p.n, e.workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work()
	wg.Wait()
	busy = time.Duration(r.nanos.Load())
	for _, err := range r.errs {
		if err != nil {
			return nil, busy, err
		}
	}
	res, err = p.assemble(r.vals)
	return res, busy, err
}

// planRun is one runPlan call's shared state: its workers claim row
// indices from next and write only their own rows' vals and errs.
type planRun struct {
	e      *Engine
	ctx    context.Context
	p      *RowPlan
	vals   []any
	errs   []error
	next   atomic.Int64
	nanos  atomic.Int64
	failed atomic.Bool
}

func (r *planRun) work() {
	for !r.failed.Load() {
		i := int(r.next.Add(1) - 1)
		if i >= r.p.n {
			return
		}
		v, d, err := r.e.execRow(r.ctx, r.p, i)
		r.nanos.Add(int64(d))
		r.vals[i], r.errs[i] = v, err
		if err != nil {
			r.failed.Store(true)
		}
	}
}

// execRow computes row i of a plan in a worker slot with panic
// containment, returning the row's value and how long it held the slot.
// The row runs on the slot's simulator, which is trimmed to its byte cap
// afterwards. A panicking row becomes a *PanicError and bumps the panic
// counters instead of killing the process, and its slot gets a fresh
// simulator, since the panic may have left the old one mid-run.
func (e *Engine) execRow(ctx context.Context, p *RowPlan, i int) (v any, elapsed time.Duration, err error) {
	var sim *netsim.Sim
	select {
	case sim = <-e.slots:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	e.inFlight.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Val: r, Stack: debug.Stack()}
			v, err = nil, pe
			e.panics.Inc()
			e.lastPanic.Store(time.Now().UnixNano())
			e.log.Error("panic recovered in computation",
				"trace", obs.TraceID(ctx), "op", string(p.req.Op), "row", i, "panic", pe.Val)
			sim = new(netsim.Sim)
		}
		sim.Trim()
		elapsed = time.Since(start)
		e.inFlight.Add(-1)
		e.slots <- sim
	}()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	v, err = p.row(ctx, sim, i)
	return v, 0, err
}

// ExecRow computes one row of a plan through the same bounded worker pool
// interactive requests use, with panic containment, and returns the row's
// canonical JSON payload: background jobs and streams share compute
// capacity fairly with the serving path instead of bypassing it.
func (e *Engine) ExecRow(ctx context.Context, p *RowPlan, i int) (json.RawMessage, error) {
	if i < 0 || i >= p.n {
		return nil, fmt.Errorf("engine: row %d outside plan of %d rows", i, p.n)
	}
	v, elapsed, err := e.execRow(ctx, p, i)
	if elapsed > 0 || err == nil { // a row canceled while queued never ran
		e.rowsExecuted.Inc()
		e.rowHist.ObserveDuration(elapsed)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// Prime inserts an already computed result into the cache under its
// canonical key. The jobs subsystem calls it when a job finishes cleanly,
// so a synchronous query for the same request is a cache hit instead of a
// recomputation. Degraded results are never primed.
func (e *Engine) Prime(key string, res *Result) {
	if key == "" || res == nil || len(res.RowErrors) > 0 {
		return
	}
	e.cache.Add(key, res)
}
