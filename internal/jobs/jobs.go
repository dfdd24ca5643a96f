// Package jobs is the durable asynchronous job subsystem: a submitted
// engine request is split into its independent rows (engine.RowPlan),
// executed through the engine's bounded worker pool, and journaled to a
// per-job JSONL write-ahead log — submit record, one record per completed
// row, terminal record. A crash, deadline, or restart loses nothing:
// Open replays the journals and ResumeAll continues each incomplete job
// from its last checkpointed row, producing a result byte-identical to an
// uninterrupted run without recomputing any finished row. Failed rows
// retry with seeded deterministic exponential backoff + jitter up to a
// cap, after which the job degrades gracefully: it completes with the
// successful rows plus typed per-row error markers (engine.RowError)
// instead of failing wholesale, and recovered panics are contained the
// same way the serving path contains them.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

// Executor plans and runs rows. *engine.Engine satisfies it; tests
// substitute scripted executors.
type Executor interface {
	Plan(req engine.Request) (*engine.RowPlan, error)
	ExecRow(ctx context.Context, p *engine.RowPlan, i int) (json.RawMessage, error)
}

var _ Executor = (*engine.Engine)(nil)

// cachePrimer is the optional executor hook for priming the synchronous
// result cache with a finished job's result. *engine.Engine implements it
// via Prime.
type cachePrimer interface {
	Prime(key string, res *engine.Result)
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: submitted, waiting for a runner slot.
	StateQueued State = "queued"
	// StateRunning: rows are executing.
	StateRunning State = "running"
	// StateInterrupted: recovered from a journal (or stopped by a drain)
	// with rows missing; ResumeAll or a re-Submit continues it.
	StateInterrupted State = "interrupted"
	// StateDone: every row succeeded.
	StateDone State = "done"
	// StateDegraded: finished, but some rows exhausted their retries and
	// carry typed error markers instead of payloads.
	StateDegraded State = "degraded"
	// StateCanceled: canceled before completion.
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateDegraded || s == StateCanceled
}

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("jobs: manager closed")

// ErrUnknownJob is returned for ids the manager does not hold.
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrLeaseHeld is returned by Submit when the job's journal in a shared
// directory is live-held by another replica: that replica is running the
// job, and this one must not touch the journal. Callers poll or redirect.
var ErrLeaseHeld = errors.New("jobs: journal leased to another replica")

// Options configures a Manager. Dir and Exec are required; zero values
// elsewhere select defaults.
type Options struct {
	// Dir holds one JSONL journal per job. Created if missing.
	Dir string
	// Exec plans and executes rows (normally the engine).
	Exec Executor
	// Clock injects time for tests; defaults to the real clock.
	Clock Clock
	// OnRowCheckpoint, if set, runs after each row is journaled — the
	// chaos hook: returning an error halts the runner dead with no
	// terminal record, exactly like a crash, so recovery paths can be
	// exercised deterministically in tests.
	OnRowCheckpoint func(id string, row int) error
	// Logger receives structured lifecycle events — submit, resume,
	// retry, checkpoint, drain, terminal — each carrying the job id, key,
	// row, attempt, and the submitting request's trace ID, plus recovery
	// and lease diagnostics carrying the journal path. Nil discards.
	Logger *obs.Logger
	// Chaos is the failpoint plan the journal and lease writes consult
	// (see internal/chaos). Nil — the default — injects nothing.
	Chaos *chaos.Plan
	// Registry receives every jobs metric under the netpowerprop_jobs_*
	// namespace, including a row-latency histogram. Register at most one
	// manager per registry. Nil keeps the metrics unregistered.
	Registry *obs.Registry
	// Owner, when non-empty, enables the owner-lease protocol for a
	// journal directory shared between replicas: this manager only
	// loads, runs, and resumes journals whose lease it holds, releases
	// leases on drain and completion, and may adopt stale leases via
	// ClaimStale. Use a stable per-replica name (its cluster address).
	// Empty disables leases entirely — single-node behavior unchanged.
	Owner string
	// LeaseTTL is how long a claim outlives its last renewal (default
	// 10s). Renewed on every row checkpoint, so only a crashed replica
	// lets its leases expire.
	LeaseTTL time.Duration
}

// Manager owns the job table, the journal directory, and the runner pool.
type Manager struct {
	dir      string
	exec     Executor
	clock    Clock
	hook     func(id string, row int) error
	log      *obs.Logger
	chaos    *chaos.Plan
	rowHist  *obs.Histogram
	owner    string
	leaseTTL time.Duration
	// retry is the per-row retry schedule: RetryPolicy{}.withDefaults().
	retry RetryPolicy

	// slots bounds jobs running at once to max(2, GOMAXPROCS/2). Rows
	// inside a job run sequentially — the checkpoint order is the row
	// order — so per-job parallelism comes from the engine pool serving
	// other work.
	slots     chan struct{}
	drain     chan struct{}
	drainOnce sync.Once
	hardCtx   context.Context
	hardStop  context.CancelFunc
	wg        sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool

	// The netpowerprop_jobs_* counters, set by instrument.
	submitted, completed, degradedN, canceledN, recovered *obs.Counter
	resumed, rowsDone, rowRetries, rowFailures, adopted   *obs.Counter
	journalErrs                                           *obs.Counter

	// journalErr latches the first journal append failure. Once set the
	// manager is journal-degraded: Submit refuses new durable work (the
	// node cannot keep its durability promises) while in-flight state
	// stays queryable and compute-only traffic is unaffected.
	journalErr atomic.Pointer[error]
}

// job is one durable unit of work.
type job struct {
	id    string
	key   string
	req   engine.Request
	plan  *engine.RowPlan
	path  string
	trace string

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	rows     []json.RawMessage
	rowErrs  []*engine.RowError
	attempts []int
	done     int // rows checkpointed (payload or exhausted marker)
	retries  int
	created  time.Time
	finished time.Time
	result   *engine.Result
	jl       *journal
	canceled bool
	doneCh   chan struct{}
	// updated is the row-progress broadcast: closed and replaced under mu
	// whenever a row settles or the state changes, waking StreamRows
	// waiters. Waiters re-check under mu, so a spurious wake is harmless.
	updated chan struct{}

	// started is set (under mu) while a runner goroutine owns the job;
	// markInterrupted clears it so a later resume can start a fresh one.
	started bool
}

// bump wakes every StreamRows waiter. Callers hold j.mu.
func (j *job) bump() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// jobID derives the stable job id from the canonical request key, so
// identical requests map to one job (and one journal file) by
// construction.
func jobID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// Open creates the journal directory if needed, replays every journal in
// it, and returns a manager holding the recovered jobs: finished jobs are
// loaded with their results reassembled, incomplete ones surface as
// StateInterrupted with their checkpointed rows preloaded. Nothing runs
// until ResumeAll or Submit.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("jobs: Options.Dir is required")
	}
	if opts.Exec == nil {
		return nil, errors.New("jobs: Options.Exec is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	if opts.Logger == nil {
		opts.Logger = obs.Nop()
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		dir:      opts.Dir,
		exec:     opts.Exec,
		clock:    opts.Clock,
		retry:    RetryPolicy{}.withDefaults(),
		hook:     opts.OnRowCheckpoint,
		log:      opts.Logger,
		chaos:    opts.Chaos,
		owner:    opts.Owner,
		leaseTTL: opts.LeaseTTL,
		slots:    make(chan struct{}, max(2, runtime.GOMAXPROCS(0)/2)),
		drain:    make(chan struct{}),
		hardCtx:  ctx,
		hardStop: cancel,
		jobs:     make(map[string]*job),
	}
	m.instrument(opts.Registry)
	if err := m.recover(); err != nil {
		cancel()
		return nil, err
	}
	return m, nil
}

// instrument creates the manager's metrics under netpowerprop_jobs_*. A
// nil registry yields handles that count but are not rendered.
func (m *Manager) instrument(reg *obs.Registry) {
	m.rowHist = reg.Histogram("netpowerprop_jobs_row_duration_seconds",
		"Latency of one job-row attempt, including engine queueing.",
		obs.DefLatencyBuckets)
	m.submitted = reg.Counter("netpowerprop_jobs_submitted_total",
		"Jobs accepted by Submit (new runs only).")
	m.completed = reg.Counter("netpowerprop_jobs_completed_total",
		"Jobs finishing with every row successful.")
	m.degradedN = reg.Counter("netpowerprop_jobs_degraded_total",
		"Jobs finishing with at least one failed row.")
	m.canceledN = reg.Counter("netpowerprop_jobs_canceled_total",
		"Jobs canceled before completion.")
	m.recovered = reg.Counter("netpowerprop_jobs_recovered_total",
		"Incomplete jobs reloaded from journals at Open.")
	m.resumed = reg.Counter("netpowerprop_jobs_resumed_total",
		"Interrupted jobs restarted by ResumeAll or Submit.")
	m.rowsDone = reg.Counter("netpowerprop_jobs_rows_done_total",
		"Rows checkpointed (payloads and exhausted markers).")
	m.rowRetries = reg.Counter("netpowerprop_jobs_row_retries_total",
		"Row attempts beyond the first.")
	m.rowFailures = reg.Counter("netpowerprop_jobs_row_failures_total",
		"Rows that exhausted their retries.")
	m.adopted = reg.Counter("netpowerprop_jobs_adopted_total",
		"Journals adopted from other replicas via the lease protocol.")
	m.journalErrs = reg.Counter("netpowerprop_jobs_journal_errors_total",
		"Journal append/fsync failures observed.")
	reg.GaugeFunc("netpowerprop_jobs_journal_degraded",
		"1 once a journal append has failed and new jobs are refused.",
		func() float64 {
			if m.JournalErr() != nil {
				return 1
			}
			return 0
		})
	depth := func(state string, count func(Depth) int) {
		reg.GaugeFunc("netpowerprop_jobs_depth",
			"Jobs currently in each lifecycle state.",
			func() float64 { return float64(count(m.Depth())) },
			"state", state)
	}
	depth("running", func(d Depth) int { return d.Running })
	depth("queued", func(d Depth) int { return d.Queued })
	depth("interrupted", func(d Depth) int { return d.Interrupted })
	depth("done", func(d Depth) int { return d.Done })
	depth("degraded", func(d Depth) int { return d.Degraded })
	depth("canceled", func(d Depth) int { return d.Canceled })
}

// noteJournalErr latches a typed journal append failure, flipping the
// manager into journal-degraded mode. Non-journal errors are ignored.
func (m *Manager) noteJournalErr(where string, err error) {
	if err == nil || (!errors.Is(err, ErrJournalWrite) && !errors.Is(err, ErrJournalSync)) {
		return
	}
	m.journalErrs.Inc()
	e := err
	if m.journalErr.CompareAndSwap(nil, &e) {
		m.log.Error("journal degraded, refusing new jobs", "where", where, "cause", err)
	}
}

// JournalErr returns the first journal append failure observed, or nil
// while the write-ahead log is healthy. A non-nil value means the node
// is degraded for durable work: /healthz reports it and Submit returns
// ErrJournalDegraded.
func (m *Manager) JournalErr() error {
	if p := m.journalErr.Load(); p != nil {
		return *p
	}
	return nil
}

// recover replays every journal in the directory.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		path := filepath.Join(m.dir, e.Name())
		if _, err := m.adoptJournal(path); err != nil {
			m.log.Warn("journal skipped", "path", path, "error", err)
		}
	}
	return nil
}

// recoverFile replays one journal into a job, returning the job id. A
// journal whose id the manager already holds is left untouched (the
// in-memory job is authoritative). Callers gate on adoptJournal when
// leases are enabled.
func (m *Manager) recoverFile(path string) (string, error) {
	recs, cleanOff, torn, err := readJournal(path)
	if err != nil {
		return "", err
	}
	if torn {
		// Drop the partial tail now so a resume appends onto clean bytes.
		if err := os.Truncate(path, cleanOff); err != nil {
			return "", fmt.Errorf("truncate torn tail: %w", err)
		}
		m.log.Warn("journal torn tail truncated", "path", path, "durable_bytes", cleanOff)
	}
	if len(recs) == 0 || recs[0].T != recSubmit || recs[0].Req == nil {
		return "", errors.New("no submit record")
	}
	sub := recs[0]
	plan, err := m.exec.Plan(*sub.Req)
	if err != nil {
		return "", fmt.Errorf("replan: %w", err)
	}
	if plan.Key() != sub.Key {
		return "", fmt.Errorf("canonical key changed (journal %q, plan %q)", sub.Key, plan.Key())
	}
	if plan.Rows() != sub.Rows {
		return "", fmt.Errorf("row count changed (journal %d, plan %d)", sub.Rows, plan.Rows())
	}
	j := m.newJob(sub.ID, plan, path, sub.Trace)
	var terminal State
	for _, rec := range recs[1:] {
		switch rec.T {
		case recRow:
			if rec.I < 0 || rec.I >= plan.Rows() {
				continue
			}
			if j.rows[rec.I] != nil || j.rowErrs[rec.I] != nil {
				continue // duplicate append after a resume overlap; first write wins
			}
			if rec.Error != "" {
				j.rowErrs[rec.I] = &engine.RowError{Row: rec.I, Err: rec.Error, Panic: rec.Panic}
			} else {
				j.rows[rec.I] = rec.Data
			}
			j.attempts[rec.I] = rec.Attempts
			j.done++
		case recDone:
			terminal = State(rec.Status)
		}
	}
	switch terminal {
	case StateDone, StateDegraded:
		res, err := plan.Assemble(j.rows, j.markers())
		if err != nil {
			return "", fmt.Errorf("reassemble: %w", err)
		}
		j.result = res
		j.state = terminal
		j.cancel()
		close(j.doneCh)
	case StateCanceled:
		j.state = StateCanceled
		j.canceled = true
		j.cancel()
		close(j.doneCh)
	default:
		j.state = StateInterrupted
		m.recovered.Inc()
		m.log.Info("job recovered", "job", j.id, "key", j.key,
			"rows_done", j.done, "rows", plan.Rows(), "trace", j.trace)
	}
	m.mu.Lock()
	if _, ok := m.jobs[j.id]; ok {
		m.mu.Unlock()
		j.cancel()
		return j.id, nil
	}
	m.jobs[j.id] = j
	m.mu.Unlock()
	return j.id, nil
}

// newJob allocates the in-memory job shell. The trace ID is embedded in
// the job's context so engine-level logs from its rows carry the same
// trace as the submitting request.
func (m *Manager) newJob(id string, plan *engine.RowPlan, path, trace string) *job {
	ctx, cancel := context.WithCancel(obs.WithTraceID(m.hardCtx, trace))
	return &job{
		id:       id,
		key:      plan.Key(),
		req:      plan.Request(),
		plan:     plan,
		path:     path,
		trace:    trace,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		rows:     make([]json.RawMessage, plan.Rows()),
		rowErrs:  make([]*engine.RowError, plan.Rows()),
		attempts: make([]int, plan.Rows()),
		created:  m.clock.Now(),
		doneCh:   make(chan struct{}),
		updated:  make(chan struct{}),
	}
}

// markers collects the job's typed row-error markers in row order.
func (j *job) markers() []engine.RowError {
	var out []engine.RowError
	for _, re := range j.rowErrs {
		if re != nil {
			out = append(out, *re)
		}
	}
	return out
}

// Submit registers a request as a durable job, idempotently by canonical
// key: resubmitting an identical request returns the existing job
// (created=false) whether it is queued, running, finished, or — after a
// restart — interrupted, in which case the submit resumes it. Only a
// canceled job is restarted from scratch with a fresh journal. The
// context's trace ID (minted here when absent) is journaled with the
// job and tags every lifecycle log line, including after a resume.
func (m *Manager) Submit(ctx context.Context, req engine.Request) (*Snapshot, bool, error) {
	plan, err := m.exec.Plan(req)
	if err != nil {
		return nil, false, err
	}
	trace := obs.TraceID(ctx)
	if trace == "" {
		trace = obs.NewTraceID()
	}
	id := jobID(plan.Key())
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	rerun := false
	if j, ok := m.jobs[id]; ok {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st != StateCanceled {
			m.mu.Unlock()
			m.log.Debug("job resubmitted", "job", id, "state", string(st),
				"trace", trace, "jobtrace", j.trace)
			// An already-accepted job needs no new journal write, so its
			// idempotent re-submit returns the existing snapshot even
			// while the journal is degraded. Resuming an interrupted job
			// DOES append, so only that path stays gated.
			if st == StateInterrupted {
				if jerr := m.JournalErr(); jerr != nil {
					return nil, false, fmt.Errorf("%w: %w", ErrJournalDegraded, jerr)
				}
				m.resume(j)
			}
			return m.snapshot(j, true), false, nil
		}
		rerun = true
	}
	// Everything past here writes the journal (fresh job, canceled
	// rerun, or on-disk adoption): refused while the journal is degraded.
	if jerr := m.JournalErr(); jerr != nil {
		m.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %w", ErrJournalDegraded, jerr)
	}
	if rerun {
		delete(m.jobs, id) // canceled: rerun from scratch
	}
	path := filepath.Join(m.dir, id+".jsonl")
	if m.leasesEnabled() {
		if _, err := os.Stat(path); err == nil && !rerun {
			// A journal exists on disk that we do not hold in memory:
			// another replica wrote it into the shared directory. Adopt it
			// if its lease allows, rather than truncating its checkpoints.
			m.mu.Unlock()
			if loaded, err := m.adoptJournal(path); err != nil {
				return nil, false, fmt.Errorf("jobs: adopt %s: %w", id, err)
			} else if !loaded {
				return nil, false, ErrLeaseHeld
			}
			m.mu.Lock()
			j := m.jobs[id]
			m.mu.Unlock()
			if j == nil {
				return nil, false, ErrUnknownJob
			}
			j.mu.Lock()
			st := j.state
			j.mu.Unlock()
			m.adopted.Inc()
			m.log.Info("job adopted on submit", "job", id, "state", string(st), "trace", trace)
			if st == StateInterrupted {
				m.resume(j)
			}
			return m.snapshot(j, true), false, nil
		}
		if !m.claimLease(path) {
			m.mu.Unlock()
			return nil, false, ErrLeaseHeld
		}
	}
	j := m.newJob(id, plan, path, trace)
	jl, err := createJournal(j.path, m.chaos)
	if err != nil {
		m.mu.Unlock()
		return nil, false, err
	}
	j.jl = jl
	reqCopy := j.req
	if err := jl.append(record{
		T: recSubmit, ID: id, Key: j.key, Req: &reqCopy,
		Rows: plan.Rows(), Trace: trace, At: m.clock.Now().UnixNano(),
	}); err != nil {
		jl.close()
		m.mu.Unlock()
		m.noteJournalErr("submit", err)
		return nil, false, err
	}
	m.jobs[id] = j
	m.mu.Unlock()
	m.submitted.Inc()
	m.log.Info("job submitted", "job", id, "key", j.key,
		"op", string(j.req.Op), "rows", plan.Rows(), "trace", trace)
	m.start(j)
	return m.snapshot(j, true), true, nil
}

// resume reopens an interrupted job's journal and starts its runner.
func (m *Manager) resume(j *job) {
	j.mu.Lock()
	if j.state != StateInterrupted {
		j.mu.Unlock()
		return
	}
	if !m.claimLease(j.path) {
		// Another replica adopted the journal between our recovery and
		// this resume; it owns the job now. Ours stays interrupted.
		j.mu.Unlock()
		m.log.Warn("resume skipped, lease held elsewhere", "job", j.id, "path", j.path)
		return
	}
	jl, err := appendJournal(j.path, m.chaos)
	if err != nil {
		j.mu.Unlock()
		m.log.Error("resume failed", "job", j.id, "path", j.path, "error", err)
		return
	}
	j.jl = jl
	j.state = StateQueued
	done := j.done
	j.bump()
	j.mu.Unlock()
	m.resumed.Inc()
	m.log.Info("job resumed", "job", j.id, "key", j.key,
		"rows_done", done, "rows", j.plan.Rows(), "trace", j.trace)
	m.start(j)
}

// ResumeAll restarts every interrupted job and returns how many it
// started — the post-recovery hook servers call once at boot.
func (m *Manager) ResumeAll() int {
	m.mu.Lock()
	var interrupted []*job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateInterrupted {
			interrupted = append(interrupted, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	sort.Slice(interrupted, func(a, b int) bool { return interrupted[a].id < interrupted[b].id })
	for _, j := range interrupted {
		m.resume(j)
	}
	return len(interrupted)
}

// start launches the runner goroutine for a queued job, unless one
// already owns it.
func (m *Manager) start(j *job) {
	j.mu.Lock()
	if j.started {
		j.mu.Unlock()
		return
	}
	j.started = true
	j.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case m.slots <- struct{}{}:
		case <-m.drain:
			m.markInterrupted(j)
			return
		case <-j.ctx.Done():
			m.finishCanceled(j)
			return
		}
		defer func() { <-m.slots }()
		m.runJob(j)
	}()
}

// runJob executes the job's missing rows in order, checkpointing each to
// the journal; completed rows (from a previous run) are never recomputed.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	j.state = StateRunning
	plan := j.plan
	j.bump()
	j.mu.Unlock()
	for i := 0; i < plan.Rows(); i++ {
		j.mu.Lock()
		have := j.rows[i] != nil || j.rowErrs[i] != nil
		j.mu.Unlock()
		if have {
			continue
		}
		select {
		case <-m.drain:
			m.markInterrupted(j)
			return
		case <-j.ctx.Done():
			m.finishCanceled(j)
			return
		default:
		}
		data, attempts, rerr, stopped := m.execRowWithRetry(j, plan, i)
		if stopped {
			if j.ctx.Err() != nil && !m.draining() {
				m.finishCanceled(j)
			} else {
				m.markInterrupted(j)
			}
			return
		}
		rec := record{T: recRow, I: i, Attempts: attempts, At: m.clock.Now().UnixNano()}
		j.mu.Lock()
		if rerr != nil {
			j.rowErrs[i] = rerr
			rec.Error, rec.Panic = rerr.Err, rerr.Panic
			m.rowFailures.Inc()
		} else {
			j.rows[i] = data
			rec.Data = data
		}
		j.attempts[i] = attempts
		j.done++
		jl := j.jl
		j.bump()
		j.mu.Unlock()
		m.rowsDone.Inc()
		if err := jl.append(rec); err != nil {
			m.log.Error("journal row append failed", "job", j.id, "path", j.path, "row", i, "error", err)
			m.noteJournalErr("row checkpoint", err)
			m.markInterrupted(j)
			return
		}
		// Each durable checkpoint renews the lease, so a live runner's
		// claim on a shared journal directory never expires between rows.
		m.renewLease(j.path)
		if m.log.Enabled(obs.LevelInfo) {
			kv := []any{"job", j.id, "key", j.key, "row", i,
				"attempts", attempts, "trace", j.trace}
			if rerr != nil {
				kv = append(kv, "error", rerr.Err, "panic", rerr.Panic)
			}
			m.log.Info("row checkpointed", kv...)
		}
		if m.hook != nil {
			if err := m.hook(j.id, i); err != nil {
				// Simulated crash: stop dead, no terminal record. The
				// journal holds every completed row; recovery resumes here.
				m.markInterrupted(j)
				return
			}
		}
	}
	m.finishJob(j)
}

// execRowWithRetry runs one row through the executor with the retry
// policy. stopped reports a cancellation/drain (row not settled); rerr is
// the typed marker after retries are exhausted.
func (m *Manager) execRowWithRetry(j *job, plan *engine.RowPlan, i int) (data json.RawMessage, attempts int, rerr *engine.RowError, stopped bool) {
	for attempt := 1; ; attempt++ {
		start := m.clock.Now()
		data, err := m.exec.ExecRow(j.ctx, plan, i)
		m.rowHist.ObserveDuration(m.clock.Now().Sub(start))
		if err == nil {
			return data, attempt, nil, false
		}
		if j.ctx.Err() != nil {
			return nil, attempt, nil, true
		}
		if attempt >= m.retry.MaxAttempts {
			var pe *engine.PanicError
			m.log.Warn("row failed, retries exhausted", "job", j.id, "key", j.key,
				"row", i, "attempts", attempt, "error", err.Error(),
				"panic", errors.As(err, &pe), "trace", j.trace)
			return nil, attempt, &engine.RowError{
				Row: i, Err: err.Error(), Panic: errors.As(err, &pe),
			}, false
		}
		m.rowRetries.Inc()
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
		delay := m.retry.Delay(j.key, i, attempt)
		m.log.Warn("row retry", "job", j.id, "key", j.key, "row", i,
			"attempt", attempt, "delay", delay, "error", err.Error(),
			"trace", j.trace)
		if m.sleepRetry(j, delay) != nil {
			return nil, attempt, nil, true
		}
	}
}

// sleepRetry is the backoff sleep, interruptible by job cancellation AND
// by a drain: a parked retry may be arbitrarily long, and shutdown must
// not wait it out — the un-checkpointed row simply replays (with the same
// deterministic delays) after recovery.
func (m *Manager) sleepRetry(j *job, d time.Duration) error {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	go func() {
		select {
		case <-m.drain:
			cancel()
		case <-ctx.Done():
		}
	}()
	return m.clock.Sleep(ctx, d)
}

// finishJob assembles the result, primes the executor's cache with a
// clean one, journals the terminal record, counts the outcome, and only
// then settles the job as done or degraded: whoever sees the job
// finished — Get, StreamRows, Depth — finds it durable and counted.
func (m *Manager) finishJob(j *job) {
	j.mu.Lock()
	markers := j.markers()
	res, err := j.plan.Assemble(j.rows, markers)
	jl := j.jl
	j.mu.Unlock()
	if err != nil {
		// Assembly of journaled payloads cannot fail unless the journal
		// was corrupted in flight; keep the job resumable rather than
		// inventing a terminal state.
		m.log.Error("job assemble failed", "job", j.id, "path", j.path, "error", err)
		m.markInterrupted(j)
		return
	}
	// Only this runner settles a running job, so the state cannot move
	// while the terminal record is written outside the lock.
	state := StateDone
	if len(markers) > 0 {
		state = StateDegraded
	} else if p, ok := m.exec.(cachePrimer); ok {
		// Primed before done is visible, so a client that sees done and
		// asks the synchronous endpoint gets a cache hit.
		p.Prime(j.key, res)
	}
	now := m.clock.Now()
	if err := jl.append(record{T: recDone, Status: string(state), At: now.UnixNano()}); err != nil {
		m.log.Error("journal terminal append failed", "job", j.id, "path", j.path, "error", err)
		m.noteJournalErr("terminal record", err)
	}
	jl.close()
	m.releaseLease(j.path)
	if state == StateDone {
		m.completed.Inc()
	} else {
		m.degradedN.Inc()
	}
	j.mu.Lock()
	j.result = res
	j.state = state
	j.finished = now
	j.bump()
	j.mu.Unlock()
	if state == StateDone {
		m.log.Info("job done", "job", j.id, "key", j.key,
			"rows", len(j.rows), "trace", j.trace)
	} else {
		m.log.Warn("job degraded", "job", j.id, "key", j.key,
			"rows", len(j.rows), "rows_failed", len(markers), "trace", j.trace)
	}
	j.cancel()
	close(j.doneCh)
}

// finishCanceled settles a canceled job: terminal record, count, then
// the visible state, like finishJob. It holds the job's lock throughout
// because a runner and Cancel may race to settle the same job.
func (m *Manager) finishCanceled(j *job) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	now := m.clock.Now()
	if j.jl != nil {
		if err := j.jl.append(record{T: recDone, Status: string(StateCanceled), At: now.UnixNano()}); err != nil {
			m.log.Error("journal cancel append failed", "job", j.id, "path", j.path, "error", err)
			m.noteJournalErr("cancel record", err)
		}
		j.jl.close()
	}
	m.canceledN.Inc()
	j.state = StateCanceled
	j.finished = now
	j.bump()
	j.mu.Unlock()
	m.releaseLease(j.path)
	m.log.Info("job canceled", "job", j.id, "key", j.key, "trace", j.trace)
	j.cancel()
	close(j.doneCh)
}

// markInterrupted checkpoints a job stopped by drain or simulated crash:
// no terminal record, journal closed, resumable later.
func (m *Manager) markInterrupted(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() || j.state == StateInterrupted {
		return
	}
	j.state = StateInterrupted
	if j.jl != nil {
		j.jl.close()
	}
	// A drained job's journal is a clean handoff: release the lease so a
	// surviving replica's ClaimStale can adopt it immediately instead of
	// waiting out the TTL.
	if m.draining() {
		m.releaseLease(j.path)
	}
	m.log.Info("job interrupted", "job", j.id, "key", j.key,
		"rows_done", j.done, "rows", len(j.rows), "trace", j.trace)
	// Re-arm so a later resume can start a fresh runner.
	j.cancel()
	j.started = false
	j.ctx, j.cancel = context.WithCancel(obs.WithTraceID(m.hardCtx, j.trace))
	j.bump()
}

// draining reports whether Close has begun.
func (m *Manager) draining() bool {
	select {
	case <-m.drain:
		return true
	default:
		return false
	}
}

// Cancel stops a job. Running jobs abort their current row; queued or
// interrupted jobs settle immediately. Terminal jobs are returned as-is.
func (m *Manager) Cancel(id string) (*Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	st := j.state
	cancel := j.cancel
	j.canceled = st == StateInterrupted || st == StateQueued || st == StateRunning
	j.mu.Unlock()
	switch st {
	case StateInterrupted:
		// No runner to observe the cancel; settle it here with an
		// append-mode journal for the terminal record.
		if jl, err := appendJournal(j.path, m.chaos); err == nil {
			j.mu.Lock()
			j.jl = jl
			j.mu.Unlock()
		}
		m.finishCanceled(j)
	case StateQueued, StateRunning:
		cancel()
	}
	return m.snapshot(j, true), nil
}

// Get returns one job's snapshot with its rows and (if finished) result.
func (m *Manager) Get(id string) (*Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	return m.snapshot(j, true), nil
}

// List returns lightweight snapshots (no rows, no results), sorted by
// creation time then id for a stable order.
func (m *Manager) List() []*Snapshot {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]*Snapshot, 0, len(js))
	for _, j := range js {
		out = append(out, m.snapshot(j, false))
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// StreamRows streams a job's settled rows to emit in row order, starting
// at row from — the resume offset: a client that already holds n rows
// passes n and receives only what it is missing. Rows already
// checkpointed replay immediately from memory (their journaled bytes
// verbatim); later rows are emitted as the runner checkpoints them. The
// call returns the job's snapshot once every remaining row has been
// emitted and the job is terminal, or early — with fewer rows — when the
// job is interrupted (drain or simulated crash closed its journal), so a
// client reconnects with its new offset after the next resume. An emit
// error (the client's connection died) aborts the stream with that error.
func (m *Manager) StreamRows(ctx context.Context, id string, from int, emit func(RowStatus) error) (*Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	if from < 0 {
		from = 0
	}
	next := from
	for {
		j.mu.Lock()
		var pending []RowStatus
		// Rows checkpoint strictly in row order, so everything settled at
		// or beyond next is a contiguous run.
		for next < len(j.rows) && (j.rows[next] != nil || j.rowErrs[next] != nil) {
			pending = append(pending, j.rowStatus(next))
			next++
		}
		st := j.state
		upd := j.updated
		j.mu.Unlock()
		for _, rs := range pending {
			if err := emit(rs); err != nil {
				return nil, err
			}
		}
		if next >= len(j.rows) && st.terminal() {
			return m.snapshot(j, true), nil
		}
		if st == StateInterrupted || st == StateCanceled {
			// No runner will settle further rows on this journal; end the
			// stream early with the current snapshot so the client can
			// reconnect with Last-Row after a resume.
			return m.snapshot(j, true), nil
		}
		select {
		case <-upd:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Wait blocks until the job reaches a terminal state or the context
// expires, then returns its snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (*Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	select {
	case <-j.doneCh:
		return m.snapshot(j, true), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close drains the manager: no new submissions, runners stop at their
// next row boundary (checkpointing, not discarding, completed rows), and
// jobs still waiting become interrupted for the next process to resume.
// If the context expires first, in-flight rows are canceled hard.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.drainOnce.Do(func() {
		m.log.Info("manager draining", "depth_running", m.Depth().Running)
		close(m.drain)
	})
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.hardStop()
		<-done
	}
	m.hardStop()
	return err
}

// Depth is the queue-depth gauge set surfaced on /healthz and /metrics.
type Depth struct {
	Running     int `json:"running"`
	Queued      int `json:"queued"`
	Interrupted int `json:"interrupted"`
	Done        int `json:"done"`
	Degraded    int `json:"degraded"`
	Canceled    int `json:"canceled"`
}

// Depth counts jobs by state.
func (m *Manager) Depth() Depth {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	var d Depth
	for _, j := range js {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case StateRunning:
			d.Running++
		case StateQueued:
			d.Queued++
		case StateInterrupted:
			d.Interrupted++
		case StateDone:
			d.Done++
		case StateDegraded:
			d.Degraded++
		case StateCanceled:
			d.Canceled++
		}
	}
	return d
}

// RowStatus is one row's position in a snapshot.
type RowStatus struct {
	Row      int             `json:"row"`
	Done     bool            `json:"done"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Panic    bool            `json:"panic,omitempty"`
	Data     json.RawMessage `json:"data,omitempty"`
}

// rowStatus renders one settled row. Callers hold j.mu. The Data bytes
// are the journaled payload verbatim — the same bytes Assemble consumes —
// so a streamed row is byte-identical to the row of the final result.
func (j *job) rowStatus(i int) RowStatus {
	rs := RowStatus{Row: i, Done: true, Attempts: j.attempts[i], Data: j.rows[i]}
	if re := j.rowErrs[i]; re != nil {
		rs.Error, rs.Panic, rs.Data = re.Err, re.Panic, nil
	}
	return rs
}

// Snapshot is a job's externally visible state: status, progress, partial
// rows, and — once terminal — the assembled result.
type Snapshot struct {
	ID        string            `json:"id"`
	Key       string            `json:"key"`
	State     State             `json:"state"`
	Rows      int               `json:"rows"`
	RowsDone  int               `json:"rows_done"`
	RowsError int               `json:"rows_failed"`
	Retries   int               `json:"retries"`
	Created   time.Time         `json:"created"`
	Finished  *time.Time        `json:"finished,omitempty"`
	Request   engine.Request    `json:"request"`
	Partial   []RowStatus       `json:"partial,omitempty"`
	RowErrors []engine.RowError `json:"row_errors,omitempty"`
	Result    *engine.Result    `json:"result,omitempty"`
}

// snapshot renders a job; full snapshots carry partial rows and results.
func (m *Manager) snapshot(j *job, full bool) *Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &Snapshot{
		ID:      j.id,
		Key:     j.key,
		State:   j.state,
		Rows:    len(j.rows),
		Retries: j.retries,
		Created: j.created,
		Request: j.req,
	}
	for i := range j.rows {
		done := j.rows[i] != nil || j.rowErrs[i] != nil
		if done {
			s.RowsDone++
		}
		if j.rowErrs[i] != nil {
			s.RowsError++
		}
		if full && done {
			s.Partial = append(s.Partial, j.rowStatus(i))
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if full {
		s.RowErrors = j.markers()
		s.Result = j.result
	}
	return s
}
