package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/obs"
)

// linesWith filters a sink's lines to those containing every needle.
func linesWith(lines []string, needles ...string) []string {
	var out []string
outer:
	for _, l := range lines {
		for _, n := range needles {
			if !strings.Contains(l, n) {
				continue outer
			}
		}
		out = append(out, l)
	}
	return out
}

// waitDone waits until job id has settled, which is after its "job done"
// line is logged (the state turns done a little before), and fails unless
// it is done.
func waitDone(t *testing.T, m *Manager, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	if s.State != StateDone {
		t.Fatalf("job %s settled %s, want %s", id, s.State, StateDone)
	}
}

// TestRetryEventsCarrySubmitTrace drives a flaky row through retries with
// a sink-backed logger and checks every lifecycle line — submit, retry,
// checkpoint, done — carries the submitting request's trace ID.
func TestRetryEventsCarrySubmitTrace(t *testing.T) {
	dir := t.TempDir()
	var sink obs.MemSink
	exec := newScriptExec(2, map[int]int{1: 2}) // row 1 fails twice, then succeeds
	m, _ := newManager(t, dir, Options{
		Exec:   exec,
		Logger: obs.New(&sink, obs.LevelDebug),
	})

	ctx := obs.WithTraceID(context.Background(), "trace-retry-1")
	snap, _, err := m.Submit(ctx, sweepReq(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, m, snap.ID)

	lines := sink.Lines()
	for _, event := range []string{
		`msg="job submitted"`, `msg="row retry"`, `msg="row checkpointed"`, `msg="job done"`,
	} {
		matched := linesWith(lines, event, "trace=trace-retry-1")
		if len(matched) == 0 {
			t.Errorf("no %s line carrying trace=trace-retry-1; lines:\n%s",
				event, strings.Join(lines, "\n"))
		}
	}
	retries := linesWith(lines, `msg="row retry"`, "row=1")
	if len(retries) != 2 {
		t.Errorf("got %d retry lines for row 1, want 2:\n%s", len(retries), strings.Join(retries, "\n"))
	}
	for _, l := range retries {
		for _, want := range []string{"job=" + snap.ID, "attempt=", "delay=", "error="} {
			if !strings.Contains(l, want) {
				t.Errorf("retry line %q missing %q", l, want)
			}
		}
	}
}

// TestResumeEventsCarryOriginalTrace crashes a job mid-run (checkpoint
// hook), reopens the journal directory in a second manager with a fresh
// sink, and checks the recovery/resume/done lines still carry the trace
// the job was originally submitted under — the journal persists it.
func TestResumeEventsCarryOriginalTrace(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("simulated crash")
	m1, _ := newManager(t, dir, Options{
		Exec: newScriptExec(3, nil),
		OnRowCheckpoint: func(id string, row int) error {
			if row == 0 {
				return boom
			}
			return nil
		},
	})
	snap, _, err := m1.Submit(obs.WithTraceID(context.Background(), "trace-resume-7"), sweepReq(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m1, snap.ID, StateInterrupted)
	if err := m1.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var sink obs.MemSink
	m2, _ := newManager(t, dir, Options{
		Exec:   newScriptExec(3, nil),
		Logger: obs.New(&sink, obs.LevelDebug),
	})
	if n := m2.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll resumed %d jobs, want 1", n)
	}
	waitDone(t, m2, snap.ID)

	lines := sink.Lines()
	for _, event := range []string{
		`msg="job recovered"`, `msg="job resumed"`, `msg="row checkpointed"`, `msg="job done"`,
	} {
		if len(linesWith(lines, event, "trace=trace-resume-7")) == 0 {
			t.Errorf("no %s line carrying the original trace; lines:\n%s",
				event, strings.Join(lines, "\n"))
		}
	}
}
