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

// TestScenarioParamKinds: a value of the wrong kind is rejected before it
// can be truncated and cached under a key of its own, and the error names
// the parameter. Integers up to ±(2^53-1) and 0/1 bools pass.
func TestScenarioParamKinds(t *testing.T) {
	for _, tc := range []struct {
		scenario, param string
		v               float64
		ok              bool
	}{
		{"gating", "ports", 64.5, false},
		{"faults", "radix", 4.7, false},
		{"faults", "iters", 1.2, false},
		{"faults", "seed", 1 << 54, false},
		{"eee", "seed", 1 << 53, false},
		{"eee", "seed", -(1 << 53) - 2, false},
		{"gating", "l3", 0.5, false},
		{"gating", "l3", 2, false},
		{"chaos", "panic", -1, false},
		{"gating", "ports", 32, true},
		{"gating", "l3", 1, true},
		{"eee", "seed", 1<<53 - 1, true},
		{"eee", "seed", -(1<<53 - 1), true},
		{"gating", "fib", 0.5, true},
	} {
		req := Request{Op: OpScenario, Scenario: tc.scenario, Params: map[string]float64{tc.param: tc.v}}
		_, err := req.Normalize()
		if tc.ok && err != nil {
			t.Errorf("%s %s=%v rejected: %v", tc.scenario, tc.param, tc.v, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.param))) {
			t.Errorf("%s %s=%v: err = %v, want a kind error naming %q", tc.scenario, tc.param, tc.v, err, tc.param)
		}
	}
}

// TestScenarioParamErrorStable: with several bad parameters the error
// names the same one on every call, whatever the map's iteration order.
func TestScenarioParamErrorStable(t *testing.T) {
	for _, params := range []map[string]float64{
		{"radix": 4.5, "iters": 1.5, "seed": 0.5, "flaps": 2.5},
		{"zz": 1, "aa": 1, "mm": 1, "radix": 4},
	} {
		req := Request{Op: OpScenario, Scenario: "faults", Params: params}
		_, first := req.Normalize()
		if first == nil {
			t.Fatalf("%v accepted", params)
		}
		for i := 0; i < 20; i++ {
			if _, err := req.Normalize(); err == nil || err.Error() != first.Error() {
				t.Fatalf("%v: error %v, then %v", params, first, err)
			}
		}
	}
}

// TestParamKindParse: command-line text parses by kind, with the flag
// package's syntax, and an int beyond ±(2^53-1) is refused rather than
// rounded into range.
func TestParamKindParse(t *testing.T) {
	for _, tc := range []struct {
		kind ParamKind
		in   string
		want float64
		ok   bool
	}{
		{ParamInt, "64", 64, true},
		{ParamInt, "0x20", 32, true},
		{ParamInt, "-1", -1, true},
		{ParamInt, "64.5", 0, false},
		{ParamInt, "9007199254740991", 1<<53 - 1, true},
		{ParamInt, "9007199254740992", 0, false},
		{ParamInt, "9007199254740993", 0, false},
		{ParamInt, "-9007199254740993", 0, false},
		{ParamBool, "true", 1, true},
		{ParamBool, "0", 0, true},
		{ParamBool, "maybe", 0, false},
		{ParamFloat, "0.25", 0.25, true},
		{ParamFloat, "x", 0, false},
	} {
		got, err := tc.kind.Parse(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("kind %d Parse(%q) = %v, %v; want %v, ok=%v", tc.kind, tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestScenarioParamsDeclared: every registered scenario declares its
// parameters once, with a help string, and every default is of its own
// kind.
func TestScenarioParamsDeclared(t *testing.T) {
	for _, name := range ScenarioNames() {
		params, _, ok := ScenarioParams(name)
		if !ok || len(params) == 0 {
			t.Fatalf("%s: ScenarioParams = %v, %v", name, params, ok)
		}
		seen := map[string]bool{}
		for _, p := range params {
			if seen[p.Name] {
				t.Errorf("%s declares %q twice", name, p.Name)
			}
			seen[p.Name] = true
			if p.Help == "" {
				t.Errorf("%s %s has no help", name, p.Name)
			}
			if err := p.Kind.check(p.Default); err != nil {
				t.Errorf("%s %s default: %v", name, p.Name, err)
			}
		}
	}
	if _, _, ok := ScenarioParams("bogus"); ok {
		t.Error("unknown scenario reported ok")
	}
}

// TestNegativeSeedRejected: the fault-trace seeds become uint64, and a
// negative float64 has no portable conversion, so a negative seed is an
// error rather than a platform-dependent trace.
func TestNegativeSeedRejected(t *testing.T) {
	for _, name := range []string{"faults", "topologies"} {
		req := Request{Op: OpScenario, Scenario: name, Params: map[string]float64{"seed": -1}}
		if _, _, err := New(Options{}).Do(context.Background(), req); err == nil || !strings.Contains(err.Error(), "seed") {
			t.Errorf("%s seed=-1: err = %v, want a seed error", name, err)
		}
	}
}
