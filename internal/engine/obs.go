package engine

import (
	"sync/atomic"

	"netpowerprop/internal/obs"
)

// This file wires the engine's counters into an obs.Registry and its
// events into an obs.Logger. The hot path keeps its existing atomics —
// the registry mirrors them through CounterFunc/GaugeFunc closures read
// only at render time — so instrumentation adds exactly one histogram
// observation per computation and per row, and nothing else.

// instrument attaches the logger and registers every engine metric
// under the netpowerprop_engine_* namespace. Histograms are created
// even without a registry so the hot path never nil-checks.
func (e *Engine) instrument(log *obs.Logger, reg *obs.Registry) {
	if log == nil {
		log = obs.Nop()
	}
	e.log = log
	for _, op := range allOps {
		st := e.opStats[op]
		if reg != nil {
			st.hist = reg.Histogram("netpowerprop_engine_compute_duration_seconds",
				"Worker time of one engine computation, summed over its rows, by operation.",
				obs.DefLatencyBuckets, "op", string(op))
		} else {
			st.hist = obs.NewHistogram(obs.DefLatencyBuckets)
		}
	}
	if reg != nil {
		e.rowHist = reg.Histogram("netpowerprop_engine_row_duration_seconds",
			"Latency of one job or stream row executed through ExecRow.",
			obs.DefLatencyBuckets)
	} else {
		e.rowHist = obs.NewHistogram(obs.DefLatencyBuckets)
	}
	if reg == nil {
		return
	}
	counter := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("netpowerprop_engine_cache_hits_total",
		"Requests answered from the result cache.", &e.hits)
	counter("netpowerprop_engine_cache_misses_total",
		"Requests that had to wait on a computation.", &e.misses)
	counter("netpowerprop_engine_singleflight_shared_total",
		"Misses that piggybacked on an in-flight identical computation.", &e.shared)
	counter("netpowerprop_engine_computations_total",
		"Computations actually run.", &e.computations)
	counter("netpowerprop_engine_errors_total",
		"Failed requests (bad input, canceled, or compute error).", &e.errors)
	counter("netpowerprop_engine_panics_total",
		"Computations that panicked and were recovered.", &e.panics)
	counter("netpowerprop_engine_shed_total",
		"Requests rejected by the bounded queue (ErrOverloaded).", &e.sheds)
	counter("netpowerprop_engine_deadline_total",
		"Requests that failed with a deadline exceeded.", &e.deadlines)
	counter("netpowerprop_engine_canceled_total",
		"Requests abandoned because the client canceled (disconnect).", &e.canceled)
	counter("netpowerprop_engine_rows_executed_total",
		"Job and stream rows run through ExecRow.", &e.rowsExecuted)
	counter("netpowerprop_engine_batches_total",
		"Batched requests answered through DoBatch.", &e.batches)
	counter("netpowerprop_engine_batch_rows_total",
		"Rows carried by batched requests.", &e.batchRows)
	counter("netpowerprop_engine_streams_total",
		"Row-streaming requests answered through Stream.", &e.streams)
	counter("netpowerprop_engine_stream_rows_total",
		"Row frames emitted by streaming requests.", &e.streamRows)
	counter("netpowerprop_engine_remote_hits_total",
		"Misses answered by the owning cluster replica via remote dispatch.", &e.remoteHits)
	reg.CounterFunc("netpowerprop_engine_cache_evictions_total",
		"Cache entries displaced by LRU pressure.",
		func() float64 { return float64(e.cache.Evictions()) })
	reg.CounterFunc("netpowerprop_engine_compute_seconds_total",
		"Cumulative computation time.",
		func() float64 { return float64(e.computeNanos.Load()) / 1e9 })
	reg.CounterFunc("netpowerprop_engine_row_compute_seconds_total",
		"Cumulative compute time spent in job and stream rows.",
		func() float64 { return float64(e.rowNanos.Load()) / 1e9 })
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
