package engine

import (
	"cmp"
	"log/slog"

	"netpowerprop/internal/obs"
)

// This file wires the engine's counters into an obs.Registry and its
// events into a *slog.Logger. The hot path increments the registry's own
// counter handles; render-time functions are left only for values other
// structures keep (histogram sums, cache population, queue depths).

// instrument attaches the logger and creates every engine metric under
// the netpowerprop_engine_* namespace. A nil registry yields handles that
// count but are not rendered, so the hot path never nil-checks.
func (e *Engine) instrument(log *slog.Logger, reg *obs.Registry) {
	e.log = cmp.Or(log, obs.Nop())
	e.opHist = make(map[Op]*obs.Histogram, len(allOps))
	for _, op := range allOps {
		e.opHist[op] = reg.Histogram("netpowerprop_engine_compute_duration_seconds",
			"Worker time of one engine computation, summed over its rows, by operation.",
			obs.DefLatencyBuckets, "op", string(op))
	}
	e.rowHist = reg.Histogram("netpowerprop_engine_row_duration_seconds",
		"Latency of one job or stream row executed through ExecRow.",
		obs.DefLatencyBuckets)
	e.hits = reg.Counter("netpowerprop_engine_cache_hits_total",
		"Requests answered from the result cache.")
	e.misses = reg.Counter("netpowerprop_engine_cache_misses_total",
		"Requests that had to wait on a computation.")
	e.shared = reg.Counter("netpowerprop_engine_singleflight_shared_total",
		"Misses that piggybacked on an in-flight identical computation.")
	e.computations = reg.Counter("netpowerprop_engine_computations_total",
		"Computations actually run.")
	e.errors = reg.Counter("netpowerprop_engine_errors_total",
		"Failed requests (bad input, canceled, or compute error).")
	e.panics = reg.Counter("netpowerprop_engine_panics_total",
		"Computations that panicked and were recovered.")
	e.sheds = reg.Counter("netpowerprop_engine_shed_total",
		"Requests rejected by the bounded queue (ErrOverloaded).")
	e.deadlines = reg.Counter("netpowerprop_engine_deadline_total",
		"Requests that failed with a deadline exceeded.")
	e.canceled = reg.Counter("netpowerprop_engine_canceled_total",
		"Requests abandoned because the client canceled (disconnect).")
	e.rowsExecuted = reg.Counter("netpowerprop_engine_rows_executed_total",
		"Job and stream rows run through ExecRow.")
	e.batches = reg.Counter("netpowerprop_engine_batches_total",
		"Batched requests answered through DoBatch.")
	e.batchRows = reg.Counter("netpowerprop_engine_batch_rows_total",
		"Rows carried by batched requests.")
	e.streams = reg.Counter("netpowerprop_engine_streams_total",
		"Row-streaming requests answered through Stream.")
	e.streamRows = reg.Counter("netpowerprop_engine_stream_rows_total",
		"Row frames emitted by streaming requests.")
	e.remoteHits = reg.Counter("netpowerprop_engine_remote_hits_total",
		"Misses answered by the owning cluster replica via remote dispatch.")
	reg.CounterFunc("netpowerprop_engine_cache_evictions_total",
		"Cache entries displaced by LRU pressure.",
		func() float64 { return float64(e.cache.Evictions()) })
	reg.CounterFunc("netpowerprop_engine_compute_seconds_total",
		"Cumulative computation time.", e.computeSeconds)
	reg.CounterFunc("netpowerprop_engine_row_compute_seconds_total",
		"Cumulative compute time spent in job and stream rows.", e.rowHist.Sum)
	reg.GaugeFunc("netpowerprop_engine_inflight",
		"Rows computing in a worker slot right now.",
		func() float64 { return float64(e.inFlight.Load()) })
	reg.GaugeFunc("netpowerprop_engine_pending",
		"Admitted computations, queued or running.",
		func() float64 { return float64(e.pending.Load()) })
	reg.GaugeFunc("netpowerprop_engine_cache_entries",
		"Current result-cache population.",
		func() float64 { return float64(e.cache.Len()) })
}
