// Command serve exposes the what-if query engine as an HTTP JSON API, so
// the paper's tables, figures, and §4 mechanism simulations can be served
// to many clients with result caching instead of re-running a CLI.
//
// Endpoints:
//
//	GET/POST /v1/whatif            cluster power/efficiency summary
//	GET/POST /v1/table3            Table 3 savings grid
//	GET/POST /v1/fig3              fixed-workload speedup curves
//	GET/POST /v1/fig4              fixed-comm-ratio speedup curves
//	GET/POST /v1/sweep             proportionality sweep
//	GET/POST /v1/cost              §3.2 annualized cost savings
//	GET      /v1/scenarios         list §4 mechanism scenarios
//	GET/POST /v1/scenarios/{name}  run a §4 mechanism scenario (incl.
//	                               "topologies", the cross-topology zoo
//	                               power-proportionality comparison)
//	POST     /v1/batch             answer many requests in one call (one dispatch
//	                               per unique key, one frame per row)
//	POST     /v1/jobs              submit a durable async job (idempotent by canonical key)
//	GET      /v1/jobs              list jobs
//	GET      /v1/jobs/{id}         job status, progress, partial rows, result when done
//	GET      /v1/jobs/{id}/stream  NDJSON row stream, resumable via Last-Row offset
//	DELETE   /v1/jobs/{id}         cancel a job
//	GET      /healthz              health JSON (status, drain state, uptime, job depth)
//	GET      /metrics              cache/latency/robustness/job counters (text format)
//
// GET requests take query parameters named after the JSON request fields
// (gpus, bw, ratio, netprop, compprop, interp, overlap, budget, props,
// fixedratio, steps, price, cooling); POST requests take the same fields
// as a JSON body. Identical queries are answered from a sharded LRU cache
// and concurrent identical queries collapse into one computation. Adding
// ?stream=1 to any synchronous endpoint streams the result as NDJSON row
// frames that flush as they are computed, byte-identical to the rows of
// the buffered result; ?from=N (or a Last-Row header) resumes such a
// stream at row N. A scenario's GET parameters are the names its
// registry entry declares, checked against their kinds (an integer
// parameter must be integral, a bool 0 or 1).
//
// Admission control: requests may carry X-Tenant (quota accounting key)
// and X-Priority (low, normal, high). With -quota set, each tenant spends
// row-count tokens from a token bucket (a 100-row batch costs 100);
// exhausted tenants receive 429 with a refill-derived Retry-After.
// Low-priority work is shed early (503) while the queue still has
// headroom for interactive traffic; high priority may overdraw one burst.
//
// With -jobdir set, POST /v1/jobs accepts any request body the synchronous
// endpoints take (plus "op") and runs it as a durable job: progress is
// journaled row by row to a per-job JSONL write-ahead log under the
// directory, a restarted server recovers and resumes incomplete jobs from
// their last checkpointed row, and shutdown drains runners at a row
// boundary so no completed work is lost or recomputed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netpowerprop/internal/admit"
	"netpowerprop/internal/chaos"
	"netpowerprop/internal/cluster"
	"netpowerprop/internal/cosim"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 4096, "result cache capacity (entries)")
	shards := flag.Int("shards", 16, "result cache shards")
	workers := flag.Int("workers", 0, "max concurrent computations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued computations before shedding (0 = 4x workers, negative = unbounded)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request computation timeout")
	jobdir := flag.String("jobdir", "", "directory for durable job journals (empty disables /v1/jobs)")
	quota := flag.Float64("quota", 0, "per-tenant sustained row budget per second (0 disables quotas)")
	burst := flag.Float64("burst", 0, "per-tenant token-bucket capacity in rows (0 = 2x quota)")
	targetP99 := flag.Duration("targetp99", 0, "p99 latency objective for the adaptive low-priority shed threshold (0 keeps the fixed half-capacity bound)")
	logLevel := flag.String("loglevel", "info", "log verbosity: debug, info, warn, or error")
	pprofAddr := flag.String("pprofaddr", "", "listen address for net/http/pprof (empty disables; keep it private)")
	peers := flag.String("peers", "", "comma-separated peer replica addresses (enables cluster mode)")
	clusterAddr := flag.String("cluster-addr", "", "this replica's advertised address (required with -peers)")
	gossipInterval := flag.Duration("gossip-interval", 500*time.Millisecond, "anti-entropy gossip round period")
	gossipSeed := flag.Int64("gossip-seed", 1, "seed for gossip target selection and forward retry jitter")
	hedge := flag.Duration("hedge", 250*time.Millisecond, "delay before hedging a stalled cross-replica hop (negative disables)")
	owner := flag.String("owner", "", "replica name for job-journal owner leases (defaults to -cluster-addr; empty outside cluster mode disables leases)")
	leaseTTL := flag.Duration("leasettl", 10*time.Second, "job-journal owner lease time-to-live")
	chaosSpec := flag.String("chaos", "", "failpoint plan, e.g. \"seed=7;site=jobs.journal.fsync kind=fsyncfail count=1\" (testing only)")
	cosimCmd := flag.String("cosim", "", "external co-sim model command (e.g. \"./cosim-stub\"); simulations delegate latency/power to it")
	cosimRecord := flag.String("cosim-record", "", "record co-sim model responses into this JSONL cassette")
	cosimReplay := flag.String("cosim-replay", "", "replay co-sim responses from a cassette instead of spawning a model")
	cosimTimeout := flag.Duration("cosim-timeout", 2*time.Second, "per-call co-sim timeout")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	logger := obs.New(os.Stderr, level)
	reg := obs.NewRegistry()
	// One failpoint plan, parsed once and handed to the jobs manager,
	// the cluster node and the HTTP layer. Without -chaos it is nil and
	// every site is disarmed (one nil check). Chaos metrics are always
	// registered so dashboards can assert the armed gauge is zero in
	// production.
	var plan *chaos.Plan
	if *chaosSpec != "" {
		plan, err = chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatalf("serve: -chaos: %v", err)
		}
		logger.Warn("chaos failpoints ARMED — this process will inject faults", "plan", plan.String())
	}
	plan.Instrument(reg)

	// Co-simulation: one configuration per engine, attached before any
	// request computes so cached and fresh rows agree on the model.
	cosimCfg := cosim.Config{Command: *cosimCmd, Record: *cosimRecord, Replay: *cosimReplay, Timeout: *cosimTimeout}
	var cosimBinding *cosim.Binding
	var models *netsim.Models
	if cosimCfg.Enabled() {
		cosimBinding, err = cosim.Open(cosimCfg, reg)
		if err != nil {
			log.Fatalf("serve: cosim: %v", err)
		}
		models = cosimBinding.Models()
		logger.Info("co-simulation enabled", "model", cosimBinding.Model(),
			"record", *cosimRecord, "replay", *cosimReplay)
	}

	eng := engine.New(engine.Options{CacheSize: *cacheSize, CacheShards: *shards,
		Workers: *workers, MaxQueue: *queue, Models: models,
		Logger: logger.With("component", "engine"), Registry: reg})

	// Cluster mode: shard requests across replicas by canonical key,
	// gossip peer health, and install the engine's remote-dispatch hook so
	// cache misses proxy to the key's owner. clusterCtx outlives the
	// signal context — the gossip loop must keep running through shutdown
	// to spread this replica's draining tombstone.
	started := time.Now()
	clusterCtx, clusterStop := context.WithCancel(context.Background())
	defer clusterStop()
	var node *cluster.Node
	if *peers != "" {
		if *clusterAddr == "" {
			log.Fatalf("serve: -peers requires -cluster-addr (this replica's advertised address)")
		}
		node = cluster.New(cluster.Options{
			Self:           *clusterAddr,
			Peers:          strings.Split(*peers, ","),
			Seed:           *gossipSeed,
			HedgeDelay:     *hedge,
			GossipInterval: *gossipInterval,
			Retry:          jobs.RetryPolicy{MaxAttempts: 3, Base: 50 * time.Millisecond, Max: time.Second, Seed: uint64(*gossipSeed)},
			QueueDepth:     eng.Pending,
			Uptime:         func() float64 { return time.Since(started).Seconds() },
			Logger:         logger.With("component", "cluster"),
			Registry:       reg,
			Chaos:          plan,
		})
		eng.SetRemote(node.Dispatch)
		go node.Run(clusterCtx)
		logger.Info("cluster mode", "self", node.Self(), "peers", *peers)
	}
	ownerName := *owner
	if ownerName == "" && node != nil {
		ownerName = node.Self()
	}

	var jm *jobs.Manager
	if *jobdir != "" {
		jm, err = jobs.Open(jobs.Options{Dir: *jobdir, Exec: eng,
			Owner: ownerName, LeaseTTL: *leaseTTL,
			Logger: logger.With("component", "jobs"), Registry: reg, Chaos: plan})
		if err != nil {
			log.Fatalf("serve: open job store: %v", err)
		}
		if n := jm.ResumeAll(); n > 0 {
			logger.Info("resumed interrupted jobs", "count", n, "dir", *jobdir)
		}
		if ownerName != "" {
			// Adoption sweep: pick up journals whose owner drained or died
			// (released or expired leases) so their jobs finish here.
			go func() {
				period := *leaseTTL / 2
				if period < time.Second {
					period = time.Second
				}
				t := time.NewTicker(period)
				defer t.Stop()
				for {
					select {
					case <-clusterCtx.Done():
						return
					case <-t.C:
						if n := jm.ClaimStale(); n > 0 {
							logger.Info("adopted stale job journals", "count", n)
						}
					}
				}
			}()
		}
	}
	srv := newServer(eng, jm, *timeout, logger.With("component", "http"), reg)
	srv.cluster = node
	srv.chaos = plan
	srv.admit = admit.New(admit.Options{
		RatePerSec: *quota, Burst: *burst,
		Capacity: eng.Capacity(), Pending: eng.Pending, Registry: reg,
		P99:       func() float64 { return srv.latency.Quantile(0.99) },
		TargetP99: *targetP99,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr, logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	srv.draining.Store(true)
	if node != nil {
		// Gossip the drain first: the tombstone spreads while in-flight
		// work finishes, so peers stop routing new keys here immediately.
		node.SetDraining()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	// Stop job runners at their next row boundary: every finished row is
	// already journaled, so interrupted jobs resume without recomputation
	// on the next start.
	if jm != nil {
		if err := jm.Close(shutdownCtx); err != nil {
			logger.Warn("job drain", "error", err)
		}
	}
	// Drain in-flight engine computations so nothing is cut off mid-solve;
	// bounded by the same shutdown deadline.
	if err := eng.Drain(shutdownCtx); err != nil {
		logger.Warn("engine drain", "error", err)
	}
	// Closed after the drain: in-flight rows may still consult the model,
	// and closing flushes any recording cassette.
	if cosimBinding != nil {
		if err := cosimBinding.Close(); err != nil {
			logger.Warn("cosim close", "error", err)
		}
	}
}

// servePprof exposes net/http/pprof on its own listener, kept off the API
// address so profiling endpoints are never reachable through the public
// port. Handlers are mounted explicitly on a fresh mux — importing
// net/http/pprof also registers on http.DefaultServeMux, which this
// server never serves.
func servePprof(addr string, logger *obs.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("pprof listener failed", "addr", addr, "error", err)
	}
}

// server routes API requests into the engine and the job manager.
type server struct {
	eng     *engine.Engine
	jobs    *jobs.Manager // nil: /v1/jobs disabled
	admit   *admit.Controller
	cluster *cluster.Node // nil: single-node
	chaos   *chaos.Plan   // failpoints for response writes; nil: disarmed
	timeout time.Duration
	started time.Time
	mux     *http.ServeMux
	log     *obs.Logger
	reg     *obs.Registry
	// panics counts HTTP handler panics recovered by ServeHTTP; draining
	// flips when graceful shutdown begins, for /healthz.
	panics   *obs.Counter
	draining atomic.Bool
	// metricsMu guards the lazily created per-route/per-code series; the
	// route and code sets are small and fixed by the mux, so the maps
	// converge after the first request per combination.
	metricsMu   sync.Mutex
	reqCounters map[string]*obs.Counter
	routeHists  map[string]*obs.Histogram
	// latency aggregates serving latency across every route: the probe
	// behind the adaptive low-priority shed threshold (-targetp99),
	// which needs one overall p99 rather than the per-route series.
	latency *obs.Histogram
}

func newServer(eng *engine.Engine, jm *jobs.Manager, timeout time.Duration,
	logger *obs.Logger, reg *obs.Registry) *server {
	if logger == nil {
		logger = obs.Nop()
	}
	s := &server{eng: eng, jobs: jm, timeout: timeout, started: time.Now(),
		mux: http.NewServeMux(), log: logger, reg: reg,
		reqCounters: make(map[string]*obs.Counter),
		routeHists:  make(map[string]*obs.Histogram)}
	s.latency = reg.Histogram("netpowerprop_http_latency_overall_seconds",
		"HTTP request latency across all routes; feeds the adaptive low-priority shed threshold.",
		obs.DefLatencyBuckets)
	// Default admission: priorities active, quotas off, fixed shed
	// threshold. main swaps in a fully configured controller (quota,
	// metrics, adaptive shed) once the flags are known.
	s.admit = admit.New(admit.Options{Capacity: eng.Capacity(), Pending: eng.Pending})
	s.panics = reg.Counter("netpowerprop_http_panics_total",
		"HTTP handler panics recovered by the serving middleware.")
	reg.GaugeFunc("netpowerprop_process_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for _, op := range []engine.Op{engine.OpWhatIf, engine.OpTable3, engine.OpFig3,
		engine.OpFig4, engine.OpSweep, engine.OpCost} {
		s.mux.HandleFunc("/v1/"+string(op), s.handleOp(op))
	}
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterStatus)
	s.mux.HandleFunc("POST /v1/cluster/gossip", s.handleClusterGossip)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarioList)
	s.mux.HandleFunc("/v1/scenarios/{name}", s.handleScenario)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s
}

// statusWriter records the response status and byte count for the
// request log and the per-route metrics, and evaluates the server's
// response-write failpoint.
type statusWriter struct {
	http.ResponseWriter
	chaos  *chaos.Plan
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	// Failpoint: response-write faults model a sick downstream socket —
	// added latency (slow reader) or a hard write error (connection
	// reset). Disarmed (nil plan) cost is one nil check.
	if f := w.chaos.Fire(chaos.SiteResponseWrite, ""); f.Active() {
		if f.Kind == chaos.KindLatency {
			time.Sleep(f.Delay)
		} else if f.Err != nil {
			return 0, f.Err
		}
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// route returns the mux pattern serving the request — the bounded label
// for metrics and logs (URL paths would be unbounded cardinality).
func (s *server) route(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unrouted"
}

// observe records one finished request in the per-route counters and
// latency histogram, creating the labeled series on first use.
func (s *server) observe(route string, status int, d time.Duration) {
	code := strconv.Itoa(status)
	key := route + "\x00" + code
	s.metricsMu.Lock()
	c, ok := s.reqCounters[key]
	if !ok {
		c = s.reg.Counter("netpowerprop_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", route, "code", code)
		s.reqCounters[key] = c
	}
	h, ok := s.routeHists[route]
	if !ok {
		h = s.reg.Histogram("netpowerprop_http_request_duration_seconds",
			"HTTP request latency, by route pattern.",
			obs.DefLatencyBuckets, "route", route)
		s.routeHists[route] = h
	}
	s.metricsMu.Unlock()
	c.Inc()
	h.ObserveDuration(d)
	s.latency.ObserveDuration(d)
}

// ServeHTTP is the serving middleware: it stamps (or propagates) the
// request's X-Trace-Id, records per-route metrics, emits one structured
// log line per request, and contains handler panics — a panicking
// handler answers 500 JSON and bumps a counter instead of killing the
// process. (Engine-side panics are already converted to errors by the
// engine; this guards the serving path itself.)
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	trace := r.Header.Get("X-Trace-Id")
	if !obs.ValidTraceID(trace) {
		// Absent or unsafe (header injection, log forgery): mint a fresh
		// ID rather than echoing attacker-controlled bytes.
		trace = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", trace)
	r = r.WithContext(obs.WithTraceID(r.Context(), trace))
	route := s.route(r)
	sw := &statusWriter{ResponseWriter: w, chaos: s.chaos}
	defer func() {
		if v := recover(); v != nil {
			s.panics.Inc()
			s.log.Error("panic in handler", "trace", trace, "method", r.Method,
				"path", r.URL.Path, "panic", v)
			// Best-effort: if the handler already wrote a response this
			// header write is a no-op error, not a crash.
			writeJSON(sw, http.StatusInternalServerError,
				apiError{Error: fmt.Sprintf("internal error: %v", v)})
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(start)
		s.observe(route, status, dur)
		s.log.Info("request", "trace", trace, "method", r.Method, "route", route,
			"path", r.URL.Path, "status", status, "bytes", sw.bytes,
			"dur", dur.Round(time.Microsecond))
	}()
	s.mux.ServeHTTP(sw, r)
}

// apiResponse wraps a result with its serving metadata.
type apiResponse struct {
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Result    *engine.Result `json:"result"`
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterSeconds derives the Retry-After hint from actual queue
// state: the expected time to drain the pending computations through the
// worker pool, using the engine's measured mean compute time, clamped to
// [1, 60] seconds. rows is the rejected submission's own row count — a
// shed 100-row batch must wait for the queue to drain room for 100 rows,
// not for 1, so batches pass their row count and single requests pass 1.
// A draining server reports at least drainRetryAfter — the queue will not
// empty in this process; clients should wait for the restart.
func (s *server) retryAfterSeconds(rows int) int {
	if rows < 1 {
		rows = 1
	}
	avg := 0.05 // prior before any computation has finished
	if mean, ok := s.eng.MeanCompute(); ok {
		avg = mean
	}
	secs := int(math.Ceil(avg * float64(s.eng.Pending()+int64(rows)-1) / float64(s.eng.Workers())))
	if s.draining.Load() && secs < drainRetryAfter {
		secs = drainRetryAfter
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// drainRetryAfter is the minimum Retry-After (seconds) while draining.
const drainRetryAfter = 5

func (s *server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var pe *engine.PanicError
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		// Shed load: tell clients when the queue should actually have
		// drained, not a fixed guess.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(1)))
		status = http.StatusServiceUnavailable
	case errors.As(err, &pe):
		status = http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// decodeRequest builds an engine.Request from either a JSON POST body or
// GET query parameters.
func decodeRequest(r *http.Request) (engine.Request, error) {
	var req engine.Request
	if r.Method == http.MethodPost {
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return engine.Request{}, fmt.Errorf("decode request body: %w", err)
		}
		return req, nil
	}
	return parseQuery(r)
}

// parseQuery maps query parameters onto the request fields.
func parseQuery(r *http.Request) (engine.Request, error) {
	var req engine.Request
	q := r.URL.Query()
	var err error
	intField := func(name string, dst *int) {
		if err != nil || !q.Has(name) {
			return
		}
		var v int
		if v, err = strconv.Atoi(q.Get(name)); err == nil {
			*dst = v
		} else {
			err = fmt.Errorf("parameter %s: %w", name, err)
		}
	}
	floatField := func(name string, dst *float64) {
		if err != nil || !q.Has(name) {
			return
		}
		var v float64
		if v, err = strconv.ParseFloat(q.Get(name), 64); err == nil {
			*dst = v
		} else {
			err = fmt.Errorf("parameter %s: %w", name, err)
		}
	}
	optFloatField := func(name string, dst **float64) {
		if err != nil || !q.Has(name) {
			return
		}
		var v float64
		if v, err = strconv.ParseFloat(q.Get(name), 64); err == nil {
			*dst = &v
		} else {
			err = fmt.Errorf("parameter %s: %w", name, err)
		}
	}
	intField("gpus", &req.GPUs)
	req.Bandwidth = q.Get("bw")
	floatField("ratio", &req.CommRatio)
	optFloatField("netprop", &req.NetworkProportionality)
	// /v1/cost mirrors the CLI's -prop flag name too.
	optFloatField("prop", &req.NetworkProportionality)
	optFloatField("compprop", &req.ComputeProportionality)
	req.Interp = q.Get("interp")
	floatField("overlap", &req.Overlap)
	req.Budget = q.Get("budget")
	floatField("fixedratio", &req.FixedCommRatio)
	intField("steps", &req.Steps)
	optFloatField("price", &req.Price)
	optFloatField("cooling", &req.Cooling)
	if err != nil {
		return engine.Request{}, err
	}
	if s := q.Get("props"); s != "" {
		for _, part := range strings.Split(s, ",") {
			v, perr := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if perr != nil {
				return engine.Request{}, fmt.Errorf("parameter props: %w", perr)
			}
			req.Proportionalities = append(req.Proportionalities, v)
		}
	}
	return req, nil
}

// admitRequest applies the priority/quota admission layer for a request
// carrying rows rows. It answers the rejection itself (400 for a bad
// priority, 429 for quota, 413 for a request no full bucket could ever
// cover, 503 for a low-priority load shed) and reports whether the
// request may proceed to the engine, along with the tenant and priority
// it was admitted under so callers can refund rows the engine sheds.
func (s *server) admitRequest(w http.ResponseWriter, r *http.Request, rows int) (tenant string, pri admit.Priority, admitted bool) {
	pri, ok := admit.ParsePriority(r.Header.Get("X-Priority"))
	if !ok {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("unknown X-Priority %q (want low, normal, or high)", r.Header.Get("X-Priority"))})
		return "", pri, false
	}
	tenant = r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	d := s.admit.Admit(tenant, pri, rows)
	if d.OK {
		return tenant, pri, true
	}
	switch d.Reason {
	case admit.ReasonQuota:
		secs := int(math.Ceil(d.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests,
			apiError{Error: fmt.Sprintf("tenant %q quota exceeded for %d rows", tenant, rows)})
	case admit.ReasonTooLarge:
		// Permanent: tokens refill only to burst, so retrying can never
		// succeed. No Retry-After — the client must split the batch.
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("%d rows exceed tenant %q's quota burst; split the batch", rows, tenant)})
	default:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(rows)))
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{Error: "low-priority request shed under load"})
	}
	return tenant, pri, false
}

// forwardedAdmit reports whether the request is an intra-cluster hop
// whose admission was already charged at the ingress replica. Only
// honored in cluster mode — outside it the header would be an
// unauthenticated quota bypass.
func (s *server) forwardedAdmit(r *http.Request) bool {
	return s.cluster != nil && r.Header.Get("X-Forwarded-Admit") == "1"
}

// serve answers one request through the engine. ?stream=1 switches to the
// NDJSON row stream instead of one buffered JSON body.
//
// Cluster mode adds two obligations: a hop carrying X-Forwarded-Admit
// skips the quota layer (the ingress replica already charged it — the
// double-billing fix) and pins the engine to local compute so proxy
// chains cannot loop; and every response reports how it was answered in
// X-Cluster-Route (local, forwarded, or degraded).
func (s *server) serve(w http.ResponseWriter, r *http.Request, req engine.Request) {
	forwarded := s.forwardedAdmit(r)
	if !forwarded {
		if _, _, ok := s.admitRequest(w, r, 1); !ok {
			return
		}
	}
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		if s.cluster != nil {
			// Streams always compute locally: rows flush as computed, which
			// cannot be proxied without buffering (and failover resume needs
			// every replica to produce identical bytes anyway).
			w.Header().Set("X-Cluster-Route", cluster.RouteLocal)
		}
		s.serveStream(w, r, req)
		return
	}
	ctx := r.Context()
	var note *cluster.RouteNote
	if s.cluster != nil {
		ctx, note = cluster.WithRouteNote(ctx)
	}
	if forwarded {
		ctx = engine.WithLocalOnly(ctx)
	}
	ctx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	start := time.Now()
	res, cached, err := s.eng.Do(ctx, req)
	if s.cluster != nil {
		route := note.Value()
		if route == "" {
			route = cluster.RouteLocal
		}
		w.Header().Set("X-Cluster-Route", route)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	if cached {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	writeJSON(w, http.StatusOK, apiResponse{
		Cached:    cached,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		Result:    res,
	})
}

func (s *server) handleOp(op engine.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		req, err := decodeRequest(r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		req.Op = op
		s.serve(w, r, req)
	}
}

func (s *server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	req := engine.Request{Op: engine.OpScenario, Scenario: r.PathValue("name")}
	if r.Method == http.MethodPost {
		var err error
		if req, err = decodeRequest(r); err != nil {
			s.writeError(w, err)
			return
		}
		req.Op = engine.OpScenario
		req.Scenario = r.PathValue("name")
	} else {
		params := make(map[string]float64)
		for name, vals := range r.URL.Query() {
			if len(vals) == 0 {
				continue
			}
			if name == "bw" || name == "speed" {
				req.Bandwidth = vals[0]
				continue
			}
			if name == "stream" || name == "from" {
				// Transport directives (?stream=1, and the resume offset
				// ?from=N), not scenario parameters.
				continue
			}
			v, err := strconv.ParseFloat(vals[0], 64)
			if err != nil {
				s.writeError(w, fmt.Errorf("parameter %s: %w", name, err))
				return
			}
			params[name] = v
		}
		if len(params) > 0 {
			req.Params = params
		}
	}
	s.serve(w, r, req)
}

func (s *server) handleScenarioList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"scenarios": engine.ScenarioNames()})
}

// jobsEnabled guards the job endpoints behind -jobdir.
func (s *server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{Error: "durable jobs disabled: start the server with -jobdir"})
		return false
	}
	return true
}

// handleJobSubmit accepts any engine request (the synchronous endpoints'
// JSON body plus "op") as a durable job. Submission is idempotent by the
// request's canonical key: a new job answers 202, a resubmission of an
// existing one answers 200 with the current snapshot.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	req, err := decodeRequest(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	snap, created, err := s.jobs.Submit(r.Context(), req)
	if err != nil {
		if errors.Is(err, jobs.ErrClosed) {
			// Drain rejection: the manager is shutting down; tell clients
			// when a restarted server should be taking work again.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(1)))
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
			return
		}
		if errors.Is(err, jobs.ErrJournalDegraded) ||
			errors.Is(err, jobs.ErrJournalWrite) || errors.Is(err, jobs.ErrJournalSync) {
			// The journal can no longer promise durability; this node
			// refuses new jobs until restarted (compute endpoints stay up).
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
			return
		}
		s.writeError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, snap)
}

func (s *server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// healthPanicWindow is how long a recovered panic keeps /healthz degraded.
const healthPanicWindow = time.Minute

// healthResponse is the /healthz body: the engine's serving-fitness
// classification plus process-level state — drain status, uptime, and the
// job queue's per-state depth when durable jobs are enabled.
type healthResponse struct {
	engine.Health
	Draining      bool        `json:"draining"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Jobs          *jobs.Depth `json:"jobs,omitempty"`
}

// handleHealthz reports serving fitness as JSON: status "ok", or
// "degraded" with a reason when the worker pool is saturated, a panic was
// recovered recently, or shutdown is draining. The status code stays 200
// either way — degraded means "alive but impaired", and probes that only
// check the code keep working.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthResponse{
		Health:        s.eng.Health(healthPanicWindow),
		Draining:      s.draining.Load(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if h.Draining && h.Status == "ok" {
		h.Status, h.Reason = "degraded", "draining: shutdown in progress"
	}
	if s.jobs != nil {
		// A failed journal write or fsync means durability can no longer
		// be promised: the node refuses new jobs (503 from POST /v1/jobs)
		// but keeps serving compute-only traffic, and says so here.
		if jerr := s.jobs.JournalErr(); jerr != nil && h.Status == "ok" {
			h.Status, h.Reason = "degraded", "job journal failed: "+jerr.Error()
		}
		d := s.jobs.Depth()
		h.Jobs = &d
	}
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics renders the shared registry — engine, jobs, and HTTP
// metrics under the netpowerprop_* namespace — in Prometheus text
// exposition format, # HELP/# TYPE lines included.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.Render(w); err != nil {
		s.log.Warn("metrics render", "error", err)
	}
}
