package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

// sweepReq is the canonical small job: an analytic proportionality sweep
// with steps+1 independent rows, cheap enough to run many times per test.
func sweepReq(steps int) engine.Request {
	return engine.Request{Op: engine.OpSweep, Steps: steps}
}

// newManager opens a manager over a fresh engine in a test temp dir. The
// engine registers its metrics on opts.Registry too.
func newManager(t *testing.T, dir string, opts Options) (*Manager, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Registry: opts.Registry})
	opts.Dir = dir
	if opts.Exec == nil {
		opts.Exec = eng
	}
	opts.Clock = newFakeClock()
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m, eng
}

// metric renders reg and returns the value of one series, named as it
// renders (family name and label set, e.g. `x_total{k="v"}`).
func metric(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not rendered", series)
	return 0
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, m *Manager, id string, want State) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if s.State == want {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (at %s)", id, want, s.State)
	return nil
}

// resultJSON renders a result for byte-for-byte comparison.
func resultJSON(t *testing.T, res *engine.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// journalRowRecords counts the row records (and distinct rows) journaled
// for a job — the proof that completed rows were never recomputed.
func journalRowRecords(t *testing.T, dir, id string) (records int, distinct int) {
	t.Helper()
	recs, _, torn, err := readJournal(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if torn {
		t.Fatalf("journal for %s unexpectedly torn", id)
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if r.T == recRow {
			records++
			seen[r.I] = true
		}
	}
	return records, len(seen)
}

func TestJobMatchesSynchronousResult(t *testing.T) {
	dir := t.TempDir()
	m, eng := newManager(t, dir, Options{})
	req := sweepReq(6)

	snap, created, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !created {
		t.Fatal("first Submit reported created=false")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if final.RowsDone != 7 || final.Rows != 7 {
		t.Fatalf("rows done %d/%d, want 7/7", final.RowsDone, final.Rows)
	}

	direct, _, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got, want := resultJSON(t, final.Result), resultJSON(t, direct); got != want {
		t.Errorf("job result differs from synchronous result:\n job: %s\nsync: %s", got, want)
	}
}

func TestSubmitIsIdempotentByCanonicalKey(t *testing.T) {
	dir := t.TempDir()
	m, _ := newManager(t, dir, Options{})

	s1, created1, err := m.Submit(context.Background(), sweepReq(6))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// A differently spelled but identical request (steps 6 is explicit
	// here, and the default interp resolves the same) maps to the same job.
	s2, created2, err := m.Submit(context.Background(), engine.Request{Op: engine.OpSweep, Steps: 6, Bandwidth: "400G"})
	if err != nil {
		t.Fatalf("re-Submit: %v", err)
	}
	if !created1 || created2 {
		t.Errorf("created flags = %v, %v; want true, false", created1, created2)
	}
	if s1.ID != s2.ID {
		t.Errorf("equivalent requests got different jobs: %s vs %s", s1.ID, s2.ID)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(files) != 1 {
		t.Errorf("expected one journal, found %d", len(files))
	}
}

func TestKillMidJobThenRecoverIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	req := sweepReq(6) // 7 rows
	const killAfterRow = 2

	// The uninterrupted reference result.
	refEng := engine.New(engine.Options{})
	ref, _, err := refEng.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("reference Do: %v", err)
	}

	// Run 1: the checkpoint hook simulates a crash after row 2 is
	// journaled — the runner stops dead, no terminal record.
	boom := errors.New("simulated crash")
	m1, _ := newManager(t, dir, Options{
		OnRowCheckpoint: func(id string, row int) error {
			if row == killAfterRow {
				return boom
			}
			return nil
		},
	})
	snap, _, err := m1.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	interrupted := waitState(t, m1, snap.ID, StateInterrupted)
	if interrupted.RowsDone != killAfterRow+1 {
		t.Fatalf("rows checkpointed before crash = %d, want %d", interrupted.RowsDone, killAfterRow+1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close run 1: %v", err)
	}

	// Run 2: a fresh manager over a fresh engine recovers the journal and
	// resumes from the checkpoint.
	reg := obs.NewRegistry()
	m2, _ := newManager(t, dir, Options{Registry: reg})
	if got := m2.recovered.Value(); got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
	if n := m2.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll resumed %d jobs, want 1", n)
	}
	final, err := m2.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait after resume: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state after resume = %s, want done", final.State)
	}

	// Byte-for-byte identical to the uninterrupted run.
	if got, want := resultJSON(t, final.Result), resultJSON(t, ref); got != want {
		t.Errorf("recovered result differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}

	// No completed row was recomputed: the journal holds exactly one row
	// record per row, and the resumed engine executed only the missing 4.
	records, distinct := journalRowRecords(t, dir, snap.ID)
	if records != 7 || distinct != 7 {
		t.Errorf("journal has %d row records over %d rows, want 7 over 7", records, distinct)
	}
	if got := metric(t, reg, "netpowerprop_engine_rows_executed_total"); got != 7-(killAfterRow+1) {
		t.Errorf("resumed engine executed %v rows, want %d", got, 7-(killAfterRow+1))
	}
}

func TestTornJournalTailIsTruncatedAndResumed(t *testing.T) {
	dir := t.TempDir()
	req := sweepReq(6)

	refEng := engine.New(engine.Options{})
	ref, _, err := refEng.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("reference Do: %v", err)
	}

	boom := errors.New("simulated crash")
	m1, _ := newManager(t, dir, Options{
		OnRowCheckpoint: func(id string, row int) error {
			if row == 3 {
				return boom
			}
			return nil
		},
	})
	snap, _, err := m1.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m1, snap.ID, StateInterrupted)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: a crash mid-append leaves a partial line.
	path := filepath.Join(dir, snap.ID+".jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"t":"row","i":4,"att`); err != nil {
		t.Fatalf("tear journal: %v", err)
	}
	f.Close()

	m2, _ := newManager(t, dir, Options{})
	if got := m2.recovered.Value(); got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
	m2.ResumeAll()
	final, err := m2.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if got, want := resultJSON(t, final.Result), resultJSON(t, ref); got != want {
		t.Errorf("result after torn-tail recovery differs:\n got: %s\nwant: %s", got, want)
	}
	// The truncation must leave a parseable journal with one record per row.
	records, distinct := journalRowRecords(t, dir, snap.ID)
	if records != 7 || distinct != 7 {
		t.Errorf("journal has %d row records over %d rows, want 7 over 7", records, distinct)
	}
}

func TestRecoveredDoneJobServesResultWithoutRerun(t *testing.T) {
	dir := t.TempDir()
	req := sweepReq(4)
	m1, _ := newManager(t, dir, Options{})
	snap, _, err := m1.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m1.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Close(ctx)

	reg := obs.NewRegistry()
	m2, _ := newManager(t, dir, Options{Registry: reg})
	got, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("state = %s, want done", got.State)
	}
	if a, b := resultJSON(t, got.Result), resultJSON(t, final.Result); a != b {
		t.Errorf("recovered result differs from original:\n got: %s\nwant: %s", a, b)
	}
	if n := metric(t, reg, "netpowerprop_engine_rows_executed_total"); n != 0 {
		t.Errorf("recovery of a finished job executed %v rows, want 0", n)
	}
	// Resubmitting the finished job returns it instead of rerunning.
	again, created, err := m2.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("re-Submit: %v", err)
	}
	if created || again.ID != snap.ID || again.State != StateDone {
		t.Errorf("re-Submit = (created %v, id %s, state %s), want existing done job", created, again.ID, again.State)
	}
}

// scriptExec is a scripted executor: rows fail a configured number of
// times (-1: always) before succeeding, so retry behavior can be asserted
// exactly against the fake clock.
type scriptExec struct {
	rows int
	fail map[int]int

	mu    sync.Mutex
	calls map[int]int
}

func newScriptExec(rows int, fail map[int]int) *scriptExec {
	return &scriptExec{rows: rows, fail: fail, calls: map[int]int{}}
}

func (s *scriptExec) Plan(req engine.Request) (*engine.RowPlan, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	return engine.NewRowPlan(norm, s.rows,
		func(ctx context.Context, i int) (json.RawMessage, error) {
			return json.Marshal(fmt.Sprintf("row-%d", i))
		},
		func(rows []json.RawMessage) (*engine.Result, error) {
			t := &engine.Table{Title: "script"}
			for _, raw := range rows {
				if raw == nil {
					continue
				}
				var cell string
				if err := json.Unmarshal(raw, &cell); err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{cell})
			}
			return &engine.Result{Op: norm.Op, Request: norm, Table: t}, nil
		}), nil
}

func (s *scriptExec) ExecRow(ctx context.Context, p *engine.RowPlan, i int) (json.RawMessage, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.calls[i]++
	n := s.calls[i]
	f, failing := s.fail[i]
	s.mu.Unlock()
	if failing && (f < 0 || n <= f) {
		return nil, fmt.Errorf("scripted failure: row %d attempt %d", i, n)
	}
	return json.Marshal(fmt.Sprintf("row-%d", i))
}

func (s *scriptExec) attempts(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[i]
}

// heal clears a row's scripted failure.
func (s *scriptExec) heal(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.fail, i)
}

func TestRetrySleepsFollowThePolicySchedule(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	exec := newScriptExec(3, map[int]int{1: 2}) // row 1 fails twice, then succeeds
	policy := RetryPolicy{MaxAttempts: 4, Base: 50 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 7}
	m, err := Open(Options{Dir: dir, Exec: exec, Clock: clock, Retry: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())

	snap, _, err := m.Submit(context.Background(), engine.Request{Op: engine.OpSweep, Steps: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done (retries must not fail the job)", final.State)
	}
	want := []time.Duration{
		policy.withDefaults().Delay(snap.Key, 1, 1),
		policy.withDefaults().Delay(snap.Key, 1, 2),
	}
	got := clock.slept()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff sleeps = %v, want %v", got, want)
	}
	if n := exec.attempts(1); n != 3 {
		t.Errorf("row 1 attempts = %d, want 3", n)
	}
	if m.rowRetries.Value() != 2 {
		t.Errorf("RowRetries = %d, want 2", m.rowRetries.Value())
	}
}

func TestRetryExhaustionDegradesInsteadOfFailing(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	exec := newScriptExec(4, map[int]int{2: -1}) // row 2 never succeeds
	policy := RetryPolicy{MaxAttempts: 3, Base: 10 * time.Millisecond, Jitter: -1}
	m, err := Open(Options{Dir: dir, Exec: exec, Clock: clock, Retry: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())

	snap, _, err := m.Submit(context.Background(), engine.Request{Op: engine.OpSweep, Steps: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDegraded {
		t.Fatalf("state = %s, want degraded", final.State)
	}
	if len(final.RowErrors) != 1 || final.RowErrors[0].Row != 2 {
		t.Fatalf("row errors = %+v, want one marker for row 2", final.RowErrors)
	}
	if final.RowErrors[0].Panic {
		t.Error("plain failure marked as panic")
	}
	if final.Result == nil || len(final.Result.RowErrors) != 1 {
		t.Fatalf("degraded result missing row-error markers: %+v", final.Result)
	}
	// The three healthy rows all made it into the partial result.
	if len(final.Result.Table.Rows) != 3 {
		t.Errorf("degraded result has %d rows, want 3", len(final.Result.Table.Rows))
	}
	if n := exec.attempts(2); n != 3 {
		t.Errorf("row 2 attempts = %d, want MaxAttempts=3", n)
	}
	// Exactly MaxAttempts-1 backoff sleeps, on the deterministic schedule.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	got := clock.slept()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", got, want)
	}
	if f, d := m.rowFailures.Value(), m.degradedN.Value(); f != 1 || d != 1 {
		t.Errorf("rowFailures = %d, degraded = %d, want 1 and 1", f, d)
	}
}

func TestPanicRowIsContainedAsTypedMarker(t *testing.T) {
	dir := t.TempDir()
	m, _ := newManager(t, dir, Options{
		Retry: RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Jitter: -1},
	})
	req := engine.Request{
		Op: engine.OpScenario, Scenario: "chaos",
		Params: map[string]float64{"rows": 4, "panicrow": 2},
	}
	snap, _, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDegraded {
		t.Fatalf("state = %s, want degraded", final.State)
	}
	if len(final.RowErrors) != 1 || final.RowErrors[0].Row != 2 || !final.RowErrors[0].Panic {
		t.Fatalf("row errors = %+v, want a panic marker for row 2", final.RowErrors)
	}
}

func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	exec := newScriptExec(3, map[int]int{1: -1}) // row 1 retries forever
	clock := &blockingClock{gate: make(chan struct{})}
	m, err := Open(Options{Dir: dir, Exec: exec, Clock: clock,
		Retry: RetryPolicy{MaxAttempts: 1000, Base: time.Millisecond, Jitter: -1}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())

	snap, _, err := m.Submit(context.Background(), engine.Request{Op: engine.OpSweep, Steps: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until the runner is parked in a retry sleep, then cancel.
	select {
	case <-clock.gate:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached a retry sleep")
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if m.canceledN.Value() != 1 {
		t.Errorf("Canceled metric = %d, want 1", m.canceledN.Value())
	}
	// A canceled job resubmitted starts over from scratch.
	exec.heal(1)
	again, created, err := m.Submit(context.Background(), engine.Request{Op: engine.OpSweep, Steps: 2})
	if err != nil {
		t.Fatalf("re-Submit after cancel: %v", err)
	}
	if !created {
		t.Error("re-Submit after cancel did not create a fresh run")
	}
	final2, err := m.Wait(context.Background(), again.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final2.State != StateDone {
		t.Errorf("state after restart = %s, want done", final2.State)
	}
}

// blockingClock signals the first Sleep and then blocks until the context
// is canceled, parking a retrying job deterministically for cancel and
// drain tests.
type blockingClock struct {
	gate     chan struct{}
	gateOnce sync.Once
}

func (c *blockingClock) Now() time.Time { return time.Unix(1_700_000_000, 0) }

func (c *blockingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.gateOnce.Do(func() { close(c.gate) })
	<-ctx.Done()
	return ctx.Err()
}

func TestDrainCheckpointsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	req := sweepReq(6) // 7 rows
	exec := newScriptExec(7, map[int]int{4: -1})
	clock := &blockingClock{gate: make(chan struct{})}
	m1, err := Open(Options{Dir: dir, Exec: exec, Clock: clock,
		Retry: RetryPolicy{MaxAttempts: 1000, Base: time.Millisecond, Jitter: -1}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap, _, err := m1.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Rows 0-3 complete; row 4 parks in its retry sleep. Drain must not
	// wait the backoff out: it interrupts the sleep and checkpoints.
	select {
	case <-clock.gate:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached row 4's retry sleep")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s, err := m1.Get(snap.ID); err != nil || s.State != StateInterrupted {
		t.Fatalf("after drain: state %v err %v, want interrupted", s.State, err)
	}
	if s, _ := m1.Get(snap.ID); s.RowsDone != 4 {
		t.Fatalf("rows checkpointed at drain = %d, want 4", s.RowsDone)
	}

	// Recovery resumes from row 4 once the failure clears.
	exec.heal(4)
	m2, err := Open(Options{Dir: dir, Exec: exec, Clock: newFakeClock()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close(context.Background())
	if n := m2.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll = %d, want 1", n)
	}
	final, err := m2.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if m2.resumed.Value() != 1 {
		t.Errorf("Resumed metric = %d, want 1", m2.resumed.Value())
	}
	// Rows 0-3 were never re-executed after recovery.
	for i := 0; i < 4; i++ {
		if n := exec.attempts(i); n != 1 {
			t.Errorf("row %d executed %d times across both runs, want 1", i, n)
		}
	}
}

func TestJobPrimesEngineCache(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, eng := newManager(t, dir, Options{Registry: reg})
	req := sweepReq(5)
	snap, _, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	before := metric(t, reg, "netpowerprop_engine_computations_total")
	if _, cached, err := eng.Do(context.Background(), req); err != nil || !cached {
		t.Errorf("synchronous query after job: cached=%v err=%v, want cache hit", cached, err)
	}
	if metric(t, reg, "netpowerprop_engine_computations_total") != before {
		t.Errorf("synchronous query recomputed despite primed cache")
	}
}

// primeProbe is an engine-backed executor whose Prime records the state
// the Manager reports for the job being primed.
type primeProbe struct {
	*engine.Engine
	m    *Manager
	seen chan State
}

func (p *primeProbe) Prime(key string, res *engine.Result) {
	snap, err := p.m.Get(jobID(key))
	if err != nil {
		panic(err)
	}
	p.seen <- snap.State
	p.Engine.Prime(key, res)
}

// A finished job is primed before done is published, so a client that
// reads done and asks the synchronous endpoint always gets a cache hit.
func TestJobPrimedBeforeDone(t *testing.T) {
	probe := &primeProbe{Engine: engine.New(engine.Options{}), seen: make(chan State, 1)}
	m, _ := newManager(t, t.TempDir(), Options{Exec: probe})
	probe.m = m
	snap, _, err := m.Submit(context.Background(), sweepReq(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	select {
	case st := <-probe.seen:
		if st == StateDone {
			t.Error("Prime ran after the job was already visible as done")
		}
	default:
		t.Fatal("finished job was never primed")
	}
}

func TestDepthAndList(t *testing.T) {
	dir := t.TempDir()
	m, _ := newManager(t, dir, Options{})
	for _, steps := range []int{3, 4} {
		if _, _, err := m.Submit(context.Background(), sweepReq(steps)); err != nil {
			t.Fatalf("Submit(%d): %v", steps, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d := m.Depth(); d.Done == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d := m.Depth(); d.Done != 2 || d.Running+d.Queued+d.Interrupted != 0 {
		t.Errorf("Depth = %+v, want 2 done", d)
	}
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("List returned %d jobs, want 2", len(list))
	}
	for _, s := range list {
		if s.Result != nil || s.Partial != nil {
			t.Errorf("List snapshot for %s carries heavy fields", s.ID)
		}
	}
}
