package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
	"netpowerprop/internal/topo"
)

// cellPlan is a plan of n rows whose row i is the cells ("row-i", "i²"),
// failing where fail says so.
func cellPlan(n int, fail func(i int) error) *RowPlan {
	norm, _ := Request{Op: OpScenario, Scenario: "chaos"}.Normalize()
	return planOf(norm, n,
		func(_ context.Context, _ *netsim.Sim, i int) ([]string, error) {
			if err := fail(i); err != nil {
				return nil, err
			}
			return []string{fmt.Sprintf("row-%d", i), fmt.Sprintf("%d", i*i)}, nil
		},
		func(rows []*[]string) (*Result, error) {
			return &Result{Table: &Table{Rows: present(rows)}}, nil
		})
}

// TestParallelRowsMatchesSerial: a plan's rows fanned out across the
// worker pool must assemble exactly the table a serial loop would, for row
// counts below, at, and above the worker count.
func TestParallelRowsMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		e := New(Options{Workers: workers})
		for _, n := range []int{0, 1, 3, 17, 64} {
			var want [][]string
			for i := 0; i < n; i++ {
				want = append(want, []string{fmt.Sprintf("row-%d", i), fmt.Sprintf("%d", i*i)})
			}
			res, _, err := e.runPlan(context.Background(), cellPlan(n, func(int) error { return nil }))
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if !reflect.DeepEqual(res.Table.Rows, want) {
				t.Errorf("workers=%d n=%d: pooled rows differ from serial:\ngot  %v\nwant %v",
					workers, n, res.Table.Rows, want)
			}
		}
	}
}

// TestRowsShareWorkerSlots: every row takes its own pool slot, so two
// concurrent many-row requests never run more than Workers rows at once
// between them, and a lone request still fans out across the pool.
func TestRowsShareWorkerSlots(t *testing.T) {
	const workers = 2
	e := New(Options{Workers: workers})
	var running, peak atomic.Int64
	slow := cellPlan(6, func(int) error {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		running.Add(-1)
		return nil
	})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.runPlan(context.Background(), slow); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got != workers {
		t.Errorf("peak concurrent rows = %d, want %d (the pool width)", got, workers)
	}
}

// TestParallelRowsErrorOrder: when several rows fail, the lowest-index
// error is reported, matching what a serial loop would surface.
func TestParallelRowsErrorOrder(t *testing.T) {
	errLow := errors.New("row 2 failed")
	errHigh := errors.New("row 9 failed")
	e := New(Options{Workers: 4})
	_, _, err := e.runPlan(context.Background(), cellPlan(12, func(i int) error {
		switch i {
		case 2:
			return errLow
		case 9:
			return errHigh
		}
		return nil
	}))
	if !errors.Is(err, errLow) {
		t.Errorf("error = %v, want lowest-index error %v", err, errLow)
	}
}

// TestScenariosParallelDeterministic: every registered scenario must
// produce identical tables whether its rows run one at a time or fan out
// across the pool — concurrency may not perturb row order or contents.
func TestScenariosParallelDeterministic(t *testing.T) {
	for name := range scenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			req := Request{Op: OpScenario, Scenario: name}
			serial := do(t, New(Options{Workers: 1}), req)
			pooled := do(t, New(Options{Workers: 4}), req)
			if !reflect.DeepEqual(serial, pooled) {
				t.Errorf("scenario %q differs between serial and pooled rows", name)
			}
		})
	}
}

// TestTopologiesScenario: the zoo comparison has one row per registered
// generator, in name order, with every cell populated.
func TestTopologiesScenario(t *testing.T) {
	res := do(t, New(Options{}), Request{
		Op: OpScenario, Scenario: "topologies",
		Params: map[string]float64{"hosts": 12, "iters": 1},
	})
	tbl := res.Table
	if tbl == nil {
		t.Fatal("no table")
	}
	names := topo.Names()
	if len(tbl.Rows) != len(names) {
		t.Fatalf("table has %d rows, zoo has %d generators", len(tbl.Rows), len(names))
	}
	for i, row := range tbl.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d topology = %q, want %q", i, row[0], names[i])
		}
		if len(row) != len(tbl.Headers) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tbl.Headers))
		}
		for c, cell := range row {
			if cell == "" {
				t.Errorf("row %d (%s) column %q empty", i, row[0], tbl.Headers[c])
			}
		}
	}
}

// TestTopologiesRejects: the scenario validates its parameter envelope.
func TestTopologiesRejects(t *testing.T) {
	for _, params := range []map[string]float64{
		{"hosts": 2},                 // too few hosts for a low-load phase
		{"lowload": 1.5},             // not a fraction
		{"level": 0},                 // no offered load
		{"iters": 0},                 // nothing to simulate
		{"hosts": 4, "lowload": 0.9}, // low-load phase leaves no idle hosts
	} {
		req := Request{Op: OpScenario, Scenario: "topologies", Params: params}
		if _, _, err := New(Options{}).Do(context.Background(), req); err == nil {
			t.Errorf("params %v accepted", params)
		}
	}
}

// TestPerOpMetrics: computations are attributed to their op, every
// registered op has a series even when idle, and the compute total is the
// sum of the per-op histograms.
func TestPerOpMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Registry: reg})
	if _, _, err := e.Do(context.Background(), Request{Op: OpWhatIf}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Do(context.Background(), Request{Op: OpWhatIf}); err != nil {
		t.Fatal(err) // cache hit: must not count as a computation
	}
	if _, _, err := e.Do(context.Background(), Request{Op: OpCost}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, op := range allOps {
		want := 0
		if op == OpWhatIf || op == OpCost {
			want = 1
		}
		line := fmt.Sprintf("netpowerprop_engine_compute_duration_seconds_count{op=%q} %d\n", op, want)
		if !strings.Contains(out, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if got := e.computations.Value(); got != 2 {
		t.Errorf("computations = %d, want 2", got)
	}
	mean, ok := e.MeanCompute()
	if sum := e.opHist[OpWhatIf].Sum() + e.opHist[OpCost].Sum(); !ok || mean != sum/2 {
		t.Errorf("MeanCompute = %v, %v; want %v, true", mean, ok, sum/2)
	}
}
