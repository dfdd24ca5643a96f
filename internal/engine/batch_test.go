package engine

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitPending polls until the engine has admitted at least n computations.
func waitPending(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for e.Pending() < n {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want >= %d", e.Pending(), n)
		case <-time.After(time.Millisecond):
		}
	}
}

// A batch answers every row with the same bytes N independent Do calls
// would have produced, in input order.
func TestBatchMatchesDo(t *testing.T) {
	reqs := []Request{
		{Op: OpWhatIf},
		{Op: OpWhatIf, GPUs: 1024},
		{Op: OpSweep, Steps: 4},
		{Op: OpCost},
	}
	batched := New(Options{})
	items := batched.DoBatch(context.Background(), reqs)
	if len(items) != len(reqs) {
		t.Fatalf("got %d items, want %d", len(items), len(reqs))
	}
	single := New(Options{})
	for i, req := range reqs {
		if items[i].Err != nil {
			t.Fatalf("row %d: %v", i, items[i].Err)
		}
		want := do(t, single, req)
		got, err := json.Marshal(items[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(ref) {
			t.Errorf("row %d differs from Do:\n batch: %s\n    do: %s", i, got, ref)
		}
	}
	if batched.batches.Value() != 1 || batched.batchRows.Value() != uint64(len(reqs)) {
		t.Errorf("batches=%d rows=%d, want 1/%d", batched.batches.Value(), batched.batchRows.Value(), len(reqs))
	}
	if batched.computations.Value() != uint64(len(reqs)) {
		t.Errorf("computations = %d, want %d", batched.computations.Value(), len(reqs))
	}
}

// Duplicate rows (including differently spelled requests that normalize
// to one canonical key) collapse to a single computation; the extras are
// reported as shared.
func TestBatchDedupesWithinBatch(t *testing.T) {
	e := New(Options{})
	reqs := []Request{
		{Op: OpWhatIf},
		{Op: OpWhatIf, GPUs: 15360, Bandwidth: "400G", CommRatio: 0.10}, // same key as row 0
		{Op: OpWhatIf},
		{Op: OpWhatIf, GPUs: 2048},
	}
	items := e.DoBatch(context.Background(), reqs)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("row %d: %v", i, it.Err)
		}
	}
	if e.computations.Value() != 2 {
		t.Errorf("computations = %d, want 2 (duplicates collapsed)", e.computations.Value())
	}
	if items[0].Shared || items[3].Shared {
		t.Errorf("first row of each group should own its computation: %+v", items)
	}
	if !items[1].Shared || !items[2].Shared {
		t.Errorf("duplicate rows should be shared: %+v", items)
	}
	if items[0].Result != items[1].Result || items[1].Result != items[2].Result {
		t.Error("duplicate rows should share one *Result")
	}
}

// Rows already in the cache are answered without computing, and prime the
// fast path for the rest of the batch's duplicates.
func TestBatchServesFromCache(t *testing.T) {
	e := New(Options{})
	warm := do(t, e, Request{Op: OpWhatIf})
	items := e.DoBatch(context.Background(), []Request{{Op: OpWhatIf}, {Op: OpCost}})
	if !items[0].Cached || items[0].Err != nil {
		t.Fatalf("warm row should be cached: %+v", items[0])
	}
	if items[0].Result != warm {
		t.Error("cached row should return the cached *Result")
	}
	if items[1].Cached {
		t.Errorf("cold row reported cached: %+v", items[1])
	}
	if e.hits.Value() != 1 || e.misses.Value() != 2 || e.computations.Value() != 2 {
		t.Errorf("hits=%d misses=%d computations=%d, want 1/2/2", e.hits.Value(), e.misses.Value(), e.computations.Value())
	}
}

// A malformed row fails alone; the rest of the batch still computes.
func TestBatchRowErrorIsolated(t *testing.T) {
	e := New(Options{})
	items := e.DoBatch(context.Background(), []Request{
		{Op: OpWhatIf},
		{Op: "bogus"},
		{Op: OpCost},
	})
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("good rows failed: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("bad row did not fail")
	}
	if items[1].Result != nil {
		t.Error("failed row carries a result")
	}
}

// Under overload, admission is per unique miss: rows that fit the queue
// bound proceed, the rest are shed with ErrOverloaded — matching what N
// independent requests would have seen. The test holds the only worker
// slot itself until every row has been admitted or shed, so no admitted
// computation can finish and free room for a sibling, however the rows
// are scheduled.
func TestBatchPartialShed(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 1})
	sim := <-e.slots
	go e.Do(context.Background(), Request{Op: OpWhatIf, GPUs: 4096}) //nolint:errcheck
	waitPending(t, e, 1)
	// Capacity is workers+maxQueue = 2 and one computation is pending:
	// exactly one of the three unique rows is admitted.
	done := make(chan []BatchItem, 1)
	go func() {
		done <- e.DoBatch(context.Background(), []Request{
			{Op: OpWhatIf},
			{Op: OpWhatIf, GPUs: 1024},
			{Op: OpWhatIf, GPUs: 2048},
		})
	}()
	deadline := time.After(2 * time.Second)
	for e.Pending()-1+int64(e.sheds.Value()) < 3 {
		select {
		case <-deadline:
			t.Fatalf("rows not all admitted or shed: pending %d, sheds %d", e.Pending(), e.sheds.Value())
		case <-time.After(time.Millisecond):
		}
	}
	e.slots <- sim
	var ok, shed int
	for _, it := range <-done {
		switch {
		case it.Err == nil:
			ok++
		case errors.Is(it.Err, ErrOverloaded):
			shed++
		default:
			t.Errorf("unexpected error: %v", it.Err)
		}
	}
	if ok != 1 || shed != 2 {
		t.Fatalf("ok=%d shed=%d, want 1 admitted and 2 shed", ok, shed)
	}
	if e.sheds.Value() != 2 {
		t.Errorf("sheds = %d, want 2", e.sheds.Value())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain after batch: %v", err)
	}
}

// All shed rows of one duplicated key report ErrOverloaded together.
func TestBatchShedCoversDuplicates(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 1})
	go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.15}))  //nolint:errcheck
	go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.151})) //nolint:errcheck
	waitPending(t, e, 2)
	items := e.DoBatch(context.Background(), []Request{
		{Op: OpWhatIf},
		{Op: OpWhatIf},
	})
	for i, it := range items {
		if !errors.Is(it.Err, ErrOverloaded) {
			t.Errorf("row %d = %v, want ErrOverloaded", i, it.Err)
		}
	}
	// One unique key shed once, even though two rows carried it.
	if e.sheds.Value() != 1 {
		t.Errorf("sheds = %d, want 1", e.sheds.Value())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Under concurrent load, pending rises and falls between a batch's
// admission checks, so one batch can have a shed key before an admitted
// one. Hammer batches against a fluctuating queue and assert the
// invariant every row must satisfy: it carries a result or an error,
// never neither.
func TestBatchShedUnderChurnNeverYieldsEmptyItems(t *testing.T) {
	e := New(Options{Workers: 2, MaxQueue: 1})
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Unique params defeat the cache and singleflight so each
				// call really occupies (then frees) a queue slot.
				e.Do(context.Background(), chaosReq(map[string]float64{ //nolint:errcheck
					"sleep": 0.001 + float64(g*1_000_000+i)*1e-12,
				}))
			}
		}(g)
	}
	for i := 0; i < 150; i++ {
		reqs := make([]Request, 6)
		for k := range reqs {
			reqs[k] = Request{Op: OpWhatIf, GPUs: (i*len(reqs)+k+1)*8 + 16384}
		}
		items := e.DoBatch(context.Background(), reqs)
		for k, it := range items {
			if it.Result == nil && it.Err == nil {
				t.Fatalf("batch %d row %d is a zero-value item: no result, no error", i, k)
			}
		}
	}
	close(stop)
	churn.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain after churn: %v", err)
	}
}

// A batch submitted with an expired context fails every row without
// dispatching work, cached rows included: the batch follows Do's
// done-context rule, which fails before the cache.
func TestBatchCanceledContext(t *testing.T) {
	e := New(Options{})
	do(t, e, Request{Op: OpTable3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := e.DoBatch(ctx, []Request{{Op: OpWhatIf}, {Op: OpCost}, {Op: OpTable3}})
	for i, it := range items {
		if !errors.Is(it.Err, context.Canceled) || it.Result != nil {
			t.Errorf("row %d = %+v, want Canceled", i, it)
		}
	}
	if e.computations.Value() != 1 {
		t.Errorf("computations = %d, want 1 (the warm-up only)", e.computations.Value())
	}
	if e.errors.Value() != 3 || e.canceled.Value() != 3 || e.deadlines.Value() != 0 {
		t.Errorf("errors/canceled/deadlines = %d/%d/%d, want 3/3/0", e.errors.Value(), e.canceled.Value(), e.deadlines.Value())
	}
}

// A batch joins a Do already in flight for the same key: both of its rows
// share that one computation.
func TestBatchJoinsInFlightDo(t *testing.T) {
	e := New(Options{})
	req := chaosReq(map[string]float64{"sleep": 0.2})
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Do(context.Background(), req)
		done <- err
	}()
	waitPending(t, e, 1)
	items := e.DoBatch(context.Background(), []Request{req, req})
	if err := <-done; err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, it := range items {
		if it.Err != nil || !it.Shared || it.Cached {
			t.Errorf("row %d = %+v, want a shared, uncached result", i, it)
		}
	}
	if e.computations.Value() != 1 || e.shared.Value() != 2 {
		t.Errorf("computations/shared = %d/%d, want 1/2", e.computations.Value(), e.shared.Value())
	}
}

// A batch whose deadline already passed counts one deadline per miss row;
// an invalid row counts as an error only.
func TestBatchExpiredDeadline(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	items := e.DoBatch(ctx, []Request{{Op: OpWhatIf}, {Op: OpCost}, {Op: "bogus"}})
	for i, it := range items[:2] {
		if !errors.Is(it.Err, context.DeadlineExceeded) {
			t.Errorf("row %d = %v, want DeadlineExceeded", i, it.Err)
		}
	}
	if e.errors.Value() != 3 || e.deadlines.Value() != 2 || e.canceled.Value() != 0 {
		t.Errorf("errors/deadlines/canceled = %d/%d/%d, want 3/2/0", e.errors.Value(), e.deadlines.Value(), e.canceled.Value())
	}
}

// An empty batch is a no-op beyond the batch counters.
func TestBatchEmpty(t *testing.T) {
	e := New(Options{})
	if items := e.DoBatch(context.Background(), nil); len(items) != 0 {
		t.Fatalf("got %d items for empty batch", len(items))
	}
	if e.batches.Value() != 1 || e.batchRows.Value() != 0 {
		t.Errorf("batches=%d rows=%d, want 1/0", e.batches.Value(), e.batchRows.Value())
	}
}
