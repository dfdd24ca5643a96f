package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
)

func mustPlan(t *testing.T, spec string) *chaos.Plan {
	t.Helper()
	p, err := chaos.Parse(spec)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	return p
}

// An injected fsync failure on a row checkpoint must surface as the
// typed ErrJournalSync, interrupt the job, flip the manager into
// journal-degraded mode (new Submits refused with ErrJournalDegraded),
// and still recover on restart: the resumed run is byte-identical to an
// uninterrupted one with no checkpointed row recomputed.
func TestJournalFsyncFaultDegradesAndRecovers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := sweepReq(6)

	refEng := engine.New(engine.Options{})
	ref, _, err := refEng.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("reference Do: %v", err)
	}

	// Fsync hit 0 is the submit record; rows are hits 1..7. Fail hit 4
	// (row 3's checkpoint), once.
	plan := mustPlan(t, "seed=1;site=jobs.journal.fsync kind=fsyncfail count=1 after=4")
	m1, _ := newManager(t, dir, Options{Chaos: plan})
	snap, _, err := m1.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m1, snap.ID, StateInterrupted)

	jerr := m1.JournalErr()
	if !errors.Is(jerr, ErrJournalSync) {
		t.Fatalf("JournalErr = %v, want ErrJournalSync", jerr)
	}
	if !errors.Is(jerr, chaos.ErrInjected) {
		t.Fatalf("JournalErr = %v, want chaos.ErrInjected in chain", jerr)
	}
	if _, _, err := m1.Submit(context.Background(), sweepReq(3)); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("Submit while degraded = %v, want ErrJournalDegraded", err)
	}
	if got := m1.journalErrs.Value(); got != 1 {
		t.Fatalf("JournalErrors = %d, want 1", got)
	}

	// Restart without chaos: the journal replays and the job finishes
	// byte-identically, skipping every checkpointed row.
	m2, _ := newManager(t, dir, Options{})
	if m2.JournalErr() != nil {
		t.Fatalf("fresh manager inherited journal degradation: %v", m2.JournalErr())
	}
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
	if got, want := resultJSON(t, final.Result), resultJSON(t, ref); got != want {
		t.Errorf("recovered result differs:\n got: %s\nwant: %s", got, want)
	}
	if records, distinct := journalRowRecords(t, dir, snap.ID); records != 7 || distinct != 7 {
		t.Errorf("journal has %d row records over %d rows, want 7 over 7", records, distinct)
	}
}

// An injected short write leaves a torn tail; recovery truncates it and
// recomputes only the torn row, so the journal still ends with exactly
// one record per row.
func TestJournalShortWriteLeavesTornTailAndRecovers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := sweepReq(6)

	// Write hit 0 is the submit record; tear row 2's checkpoint (hit 3).
	plan := mustPlan(t, "seed=1;site=jobs.journal.write kind=shortwrite count=1 after=3")
	m1, _ := newManager(t, dir, Options{Chaos: plan})
	snap, _, err := m1.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m1, snap.ID, StateInterrupted)
	if jerr := m1.JournalErr(); !errors.Is(jerr, ErrJournalWrite) {
		t.Fatalf("JournalErr = %v, want ErrJournalWrite", jerr)
	}

	m2, _ := newManager(t, dir, Options{})
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
	if records, distinct := journalRowRecords(t, dir, snap.ID); records != 7 || distinct != 7 {
		t.Errorf("journal has %d row records over %d rows, want 7 over 7", records, distinct)
	}
}

// An injected ENOSPC on the submit record itself must refuse the job
// with the typed write error and degrade the manager.
func TestJournalENOSPCOnSubmitRefusesJob(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plan := mustPlan(t, "seed=1;site=jobs.journal.write kind=enospc count=1")
	m, _ := newManager(t, dir, Options{Chaos: plan})
	_, _, err := m.Submit(context.Background(), sweepReq(4))
	if !errors.Is(err, ErrJournalWrite) {
		t.Fatalf("Submit = %v, want ErrJournalWrite", err)
	}
	if _, _, err := m.Submit(context.Background(), sweepReq(5)); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("second Submit = %v, want ErrJournalDegraded", err)
	}
}

// A fault plan belongs to the manager it was handed: two managers in
// one process, only one given an fsync-failure plan, and only that one
// degrades and counts the injection. The other's plan evaluates its
// journal sites but never fires.
func TestJournalFaultPlanIsPerManager(t *testing.T) {
	t.Parallel()
	faulty := mustPlan(t, "seed=1;site=jobs.journal.fsync kind=fsyncfail count=1")
	healthy := mustPlan(t, "seed=1;site=jobs.journal.write kind=error after=1000")
	mf, _ := newManager(t, t.TempDir(), Options{Chaos: faulty})
	mh, _ := newManager(t, t.TempDir(), Options{Chaos: healthy})

	if _, _, err := mf.Submit(context.Background(), sweepReq(4)); !errors.Is(err, ErrJournalSync) {
		t.Fatalf("faulty Submit = %v, want ErrJournalSync", err)
	}
	if _, _, err := mf.Submit(context.Background(), sweepReq(5)); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("faulty second Submit = %v, want ErrJournalDegraded", err)
	}
	snap, _, err := mh.Submit(context.Background(), sweepReq(4))
	if err != nil {
		t.Fatalf("healthy Submit = %v, want accepted", err)
	}
	if final, err := mh.Wait(context.Background(), snap.ID); err != nil || final.State != StateDone {
		t.Fatalf("healthy job = (%v, %v), want done", final, err)
	}
	if err := mh.JournalErr(); err != nil {
		t.Fatalf("healthy manager degraded: %v", err)
	}
	if got := faulty.Injections(); got != 1 {
		t.Fatalf("faulty plan injections = %d, want 1", got)
	}
	if got := healthy.Injections(); got != 0 {
		t.Fatalf("healthy plan injections = %d, want 0", got)
	}
}

// A degraded journal must refuse only genuinely NEW work: re-submitting
// an already-accepted (here: finished) job needs no journal write, so it
// still returns the existing snapshot idempotently instead of a 503.
func TestJournalDegradedStillServesKnownJobResubmit(t *testing.T) {
	dir := t.TempDir()
	req := sweepReq(4)
	m, _ := newManager(t, dir, Options{})
	snap, created, err := m.Submit(context.Background(), req)
	if err != nil || !created {
		t.Fatalf("Submit = (created=%v, %v), want fresh job", created, err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	m.noteJournalErr("test", fmt.Errorf("%w: injected", ErrJournalSync))
	if m.JournalErr() == nil {
		t.Fatal("manager did not latch the journal error")
	}
	got, created2, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("re-submit of finished job while degraded = %v, want its snapshot", err)
	}
	if created2 || got.ID != snap.ID || got.State != StateDone {
		t.Fatalf("re-submit = (id=%s state=%s created=%v), want existing done job %s", got.ID, got.State, created2, snap.ID)
	}
	// New work is still refused.
	if _, _, err := m.Submit(context.Background(), sweepReq(9)); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("new Submit while degraded = %v, want ErrJournalDegraded", err)
	}
}

// A row whose checkpoint fails to fsync is never published: the job
// interrupts with only the rows before it visible to Get and counted.
func TestRowFsyncFaultPublishesNoRow(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Fsync hit 0 is the submit record; fail hit 4, row 3's checkpoint.
	plan := mustPlan(t, "seed=1;site=jobs.journal.fsync kind=fsyncfail count=1 after=4")
	m, _ := newManager(t, dir, Options{Chaos: plan})
	snap, _, err := m.Submit(context.Background(), sweepReq(6))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitState(t, m, snap.ID, StateInterrupted)
	if got.RowsDone != 3 || len(got.Partial) != 3 {
		t.Errorf("interrupted job shows RowsDone %d and %d partial rows, want 3 and 3", got.RowsDone, len(got.Partial))
	}
	if n := m.rowsDone.Value(); n != 3 {
		t.Errorf("rows_done = %d, want 3", n)
	}
}
