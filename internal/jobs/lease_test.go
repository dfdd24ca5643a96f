package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netpowerprop/internal/engine"
)

// leaseTestReq is the request every lease test submits: a 3-row sweep.
func leaseTestReq() engine.Request { return engine.Request{Op: engine.OpSweep, Steps: 3} }

// goldenRun computes the uninterrupted single-manager result for the
// lease tests' request — the byte-identity reference.
func goldenRun(t *testing.T) string {
	t.Helper()
	m, err := Open(Options{Dir: t.TempDir(), Exec: newScriptExec(3, nil)})
	if err != nil {
		t.Fatalf("golden Open: %v", err)
	}
	defer m.Close(context.Background())
	snap, _, err := m.Submit(context.Background(), leaseTestReq())
	if err != nil {
		t.Fatalf("golden Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("golden Wait: %v", err)
	}
	return resultJSON(t, final.Result)
}

// interruptAfterRow builds a manager (owner "a") whose job crashes —
// simulated, no lease release — after checkpointing rows 0..row, and
// runs the test request into that state. Returns the journal dir, the
// job id, and the manager (already closed).
func interruptAfterRow(t *testing.T, row int, clock Clock) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	m, err := Open(Options{
		Dir: dir, Exec: newScriptExec(3, nil), Owner: "a", Clock: clock,
		OnRowCheckpoint: func(id string, r int) error {
			if r == row {
				return errors.New("simulated crash")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Open A: %v", err)
	}
	snap, _, err := m.Submit(context.Background(), leaseTestReq())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, StateInterrupted)
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close A: %v", err)
	}
	return dir, snap.ID
}

func readLeaseFile(t *testing.T, dir, id string) leaseFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, id+".lease"))
	if err != nil {
		t.Fatalf("read lease: %v", err)
	}
	var lf leaseFile
	if err := json.Unmarshal(b, &lf); err != nil {
		t.Fatalf("unmarshal lease: %v", err)
	}
	return lf
}

func writeLeaseFile(t *testing.T, dir, id string, lf leaseFile) {
	t.Helper()
	b, _ := json.Marshal(lf)
	if err := os.WriteFile(filepath.Join(dir, id+".lease"), b, 0o644); err != nil {
		t.Fatalf("write lease: %v", err)
	}
}

func TestLeasesDisabledWritesNoLeaseFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Exec: newScriptExec(3, nil)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())
	snap, _, err := m.Submit(context.Background(), leaseTestReq())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".lease" {
			t.Fatalf("lease file %s written with leases disabled", e.Name())
		}
	}
	if m.ClaimStale() != 0 {
		t.Error("ClaimStale did work with leases disabled")
	}
}

// A journal live-held by another replica is invisible — not loaded at
// Open, not adopted by ClaimStale — until its lease is released, at
// which point the survivor adopts and finishes it without recomputing
// any checkpointed row, byte-identical to an uninterrupted run.
func TestLiveLeaseBlocksAdoptionUntilReleased(t *testing.T) {
	golden := goldenRun(t)
	dir, id := interruptAfterRow(t, 0, nil)
	// Re-stamp the lease as another replica's live claim.
	writeLeaseFile(t, dir, id, leaseFile{
		Owner: "other", Expires: time.Now().Add(time.Hour).UnixNano(),
	})

	execB := newScriptExec(3, nil)
	b, err := Open(Options{Dir: dir, Exec: execB, Owner: "b"})
	if err != nil {
		t.Fatalf("Open B: %v", err)
	}
	defer b.Close(context.Background())
	if _, err := b.Get(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get = %v, want ErrUnknownJob while lease is live-held", err)
	}
	if n := b.ClaimStale(); n != 0 {
		t.Fatalf("ClaimStale = %d against a live lease, want 0", n)
	}
	// Submitting the identical request must not truncate the held journal.
	if _, _, err := b.Submit(context.Background(), leaseTestReq()); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("Submit = %v, want ErrLeaseHeld", err)
	}

	// The other replica hands off.
	writeLeaseFile(t, dir, id, leaseFile{Owner: "other", Released: true})
	if n := b.ClaimStale(); n != 1 {
		t.Fatalf("ClaimStale = %d after release, want 1", n)
	}
	final, err := b.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if got := resultJSON(t, final.Result); got != golden {
		t.Errorf("adopted result differs from uninterrupted run:\n got: %s\nwant: %s", got, golden)
	}
	if n := execB.attempts(0); n != 0 {
		t.Errorf("row 0 recomputed %d times after adoption, want 0", n)
	}
	if execB.attempts(1) != 1 || execB.attempts(2) != 1 {
		t.Errorf("rows 1,2 attempts = %d,%d, want 1,1", execB.attempts(1), execB.attempts(2))
	}
	if b.adopted.Value() != 1 {
		t.Errorf("Adopted = %d, want 1", b.adopted.Value())
	}
}

// A replica restarting under its own name reclaims its journals at Open
// without waiting out its own unexpired lease, and resumes without
// recomputing checkpointed rows.
func TestRestartReclaimsOwnJournals(t *testing.T) {
	golden := goldenRun(t)
	dir, id := interruptAfterRow(t, 0, nil)
	if lf := readLeaseFile(t, dir, id); lf.Owner != "a" || lf.Released {
		t.Fatalf("crash left lease %+v, want live claim by a", lf)
	}

	execA2 := newScriptExec(3, nil)
	a2, err := Open(Options{Dir: dir, Exec: execA2, Owner: "a"})
	if err != nil {
		t.Fatalf("Open A2: %v", err)
	}
	defer a2.Close(context.Background())
	if n := a2.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll = %d, want 1", n)
	}
	final, err := a2.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := resultJSON(t, final.Result); got != golden {
		t.Errorf("restarted result differs:\n got: %s\nwant: %s", got, golden)
	}
	if n := execA2.attempts(0); n != 0 {
		t.Errorf("row 0 recomputed %d times on restart, want 0", n)
	}
}

// A crashed replica's lease expires by TTL, after which a survivor
// adopts the journal.
func TestExpiredLeaseIsAdopted(t *testing.T) {
	// A runs on a fake clock pinned years in the past, so its lease
	// expiry is long gone by the survivor's real clock.
	dir, id := interruptAfterRow(t, 0, newFakeClock())

	execB := newScriptExec(3, nil)
	b, err := Open(Options{Dir: dir, Exec: execB, Owner: "b"})
	if err != nil {
		t.Fatalf("Open B: %v", err)
	}
	defer b.Close(context.Background())
	// Open's recovery sweep already adopts expired leases.
	snap, err := b.Get(id)
	if err != nil {
		t.Fatalf("Get after Open: %v (expired lease not adopted)", err)
	}
	if snap.State != StateInterrupted {
		t.Fatalf("state = %s, want interrupted", snap.State)
	}
	if lf := readLeaseFile(t, dir, id); lf.Owner != "b" {
		t.Errorf("lease owner = %q after adoption, want b", lf.Owner)
	}
	if n := b.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll = %d, want 1", n)
	}
	if final, err := b.Wait(context.Background(), id); err != nil || final.State != StateDone {
		t.Fatalf("Wait = %v/%v, want done", final, err)
	}
	if n := execB.attempts(0); n != 0 {
		t.Errorf("row 0 recomputed %d times, want 0", n)
	}
}

// gatedExec blocks configured rows until the test opens their gate, so
// a drain can be interleaved at an exact row boundary. Each gated row
// sends its index on entered (if set) once it is waiting at its gate.
type gatedExec struct {
	*scriptExec
	mu      sync.Mutex
	gates   map[int]chan struct{}
	entered chan int
}

func (g *gatedExec) ExecRow(ctx context.Context, p *engine.RowPlan, i int) (json.RawMessage, error) {
	g.mu.Lock()
	ch := g.gates[i]
	g.mu.Unlock()
	if ch != nil {
		if g.entered != nil {
			select {
			case g.entered <- i:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.scriptExec.ExecRow(ctx, p, i)
}

// Drain handoff: the draining replica finishes its in-flight row,
// checkpoints it, releases the lease, and a survivor adopts the journal
// immediately — no TTL wait — finishing only the missing rows.
func TestDrainHandoffReleasesLease(t *testing.T) {
	golden := goldenRun(t)
	dir := t.TempDir()
	row0 := make(chan struct{})
	gate1 := make(chan struct{})
	exec := &gatedExec{
		scriptExec: newScriptExec(3, nil),
		gates:      map[int]chan struct{}{1: gate1},
		entered:    make(chan int, 1),
	}
	var once sync.Once
	a, err := Open(Options{
		Dir: dir, Exec: exec, Owner: "a",
		OnRowCheckpoint: func(id string, r int) error {
			if r == 0 {
				once.Do(func() { close(row0) })
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Open A: %v", err)
	}
	snap, _, err := a.Submit(context.Background(), leaseTestReq())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-row0 // row 0 durable
	// Drain only once the runner is inside row 1: a drain signalled
	// before it passes the row-1 boundary would stop it there instead,
	// leaving row 1 for the survivor.
	if row := <-exec.entered; row != 1 {
		t.Fatalf("runner entered gate of row %d, want 1", row)
	}
	closed := make(chan error, 1)
	go func() { closed <- a.Close(context.Background()) }()
	// Wait for the drain signal to be visible, then let row 1 finish:
	// the runner must checkpoint it before stopping at the row-2 boundary.
	deadline := time.Now().Add(5 * time.Second)
	for !a.draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate1)
	if err := <-closed; err != nil {
		t.Fatalf("Close A: %v", err)
	}
	if lf := readLeaseFile(t, dir, snap.ID); !lf.Released {
		t.Fatalf("drained lease = %+v, want released handoff", lf)
	}

	execB := newScriptExec(3, nil)
	b, err := Open(Options{Dir: dir, Exec: execB, Owner: "b"})
	if err != nil {
		t.Fatalf("Open B: %v", err)
	}
	defer b.Close(context.Background())
	if n := b.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll = %d, want 1", n)
	}
	final, err := b.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if got := resultJSON(t, final.Result); got != golden {
		t.Errorf("handoff result differs:\n got: %s\nwant: %s", got, golden)
	}
	// The draining replica checkpointed rows 0 and 1; the survivor
	// computes only row 2.
	if execB.attempts(0) != 0 || execB.attempts(1) != 0 {
		t.Errorf("survivor recomputed rows 0/1: %d,%d attempts", execB.attempts(0), execB.attempts(1))
	}
	if n := execB.attempts(2); n != 1 {
		t.Errorf("row 2 attempts = %d, want 1", n)
	}
}

// A runner whose journal another live replica adopted mid-row stops at
// the lease fence: it appends nothing more and leaves the adopter's lease
// in place.
func TestLostLeaseStopsRunner(t *testing.T) {
	dir := t.TempDir()
	gate1 := make(chan struct{})
	exec := &gatedExec{
		scriptExec: newScriptExec(3, nil),
		gates:      map[int]chan struct{}{1: gate1},
		entered:    make(chan int, 1),
	}
	a, err := Open(Options{Dir: dir, Exec: exec, Owner: "a"})
	if err != nil {
		t.Fatalf("Open A: %v", err)
	}
	defer a.Close(context.Background())
	snap, _, err := a.Submit(context.Background(), leaseTestReq())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case row := <-exec.entered:
		if row != 1 {
			t.Fatalf("runner entered gate of row %d, want 1", row)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runner never reached row 1")
	}
	writeLeaseFile(t, dir, snap.ID, leaseFile{Owner: "b", Expires: time.Now().Add(time.Hour).UnixNano()})
	close(gate1)
	waitState(t, a, snap.ID, StateInterrupted)
	if records, _ := journalRowRecords(t, dir, snap.ID); records != 1 {
		t.Errorf("journal has %d row records, want 1 (row 0 only)", records)
	}
	if lf := readLeaseFile(t, dir, snap.ID); lf.Owner != "b" || lf.Released {
		t.Errorf("lease = %+v, want b's live claim untouched", lf)
	}
}
