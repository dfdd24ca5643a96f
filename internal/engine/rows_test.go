package engine

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"netpowerprop/internal/core"
)

// planParityRequests spans every planner: the per-point sweep split, the
// per-bandwidth Table 3 and Fig. 3/4 splits, the single-row whatif and
// cost plans, and (in TestRowPlanParityScenarios) every scenario.
func planParityRequests() []Request {
	return []Request{
		{Op: OpSweep, Steps: 6},
		{Op: OpTable3},
		{Op: OpWhatIf},
		{Op: OpCost},
		{Op: OpFig3},
		{Op: OpFig4},
	}
}

// execPlan runs every row of a plan through ExecRow and assembles.
func execPlan(t *testing.T, e *Engine, p *RowPlan) *Result {
	t.Helper()
	rows := make([]json.RawMessage, p.Rows())
	for i := range rows {
		data, err := e.ExecRow(context.Background(), p, i)
		if err != nil {
			t.Fatalf("ExecRow(%d): %v", i, err)
		}
		rows[i] = data
	}
	res, err := p.Assemble(rows, nil)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return res
}

// TestRowPlanParity: executing a request row by row through ExecRow — the
// journal payload round trip — must produce exactly the bytes Do
// assembles from the typed rows. This is the property that makes
// streaming and checkpoint/resume safe.
func TestRowPlanParity(t *testing.T) {
	for _, req := range planParityRequests() {
		req := req
		t.Run(string(req.Op), func(t *testing.T) {
			e := New(Options{})
			plan, err := e.Plan(req)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			got := execPlan(t, e, plan)
			want, _, err := e.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) {
				t.Errorf("row-plan result differs from synchronous result:\nrows: %s\nsync: %s", gb, wb)
			}
		})
	}
}

// TestRowPlanParityScenarios: every registered scenario, per-row or
// whole-table, assembles to the synchronous bytes.
func TestRowPlanParityScenarios(t *testing.T) {
	for name := range scenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e := New(Options{})
			req := Request{Op: OpScenario, Scenario: name}
			plan, err := e.Plan(req)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			got := execPlan(t, e, plan)
			want, _, err := e.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) {
				t.Errorf("scenario %q row plan differs from synchronous result:\nrows: %s\nsync: %s", name, gb, wb)
			}
		})
	}
}

// TestRowPlanRowStructure: the splits are real (not single-row plans)
// where the op has row structure.
func TestRowPlanRowStructure(t *testing.T) {
	e := New(Options{})
	cases := []struct {
		req  Request
		rows int
	}{
		{Request{Op: OpSweep, Steps: 6}, 7},
		{Request{Op: OpFig3}, len(core.Table3Bandwidths())},
		{Request{Op: OpWhatIf}, 1},
		{Request{Op: OpScenario, Scenario: "gating"}, 1},
		{Request{Op: OpScenario, Scenario: "chaos", Params: map[string]float64{"rows": 5}}, 5},
	}
	for _, c := range cases {
		p, err := e.Plan(c.req)
		if err != nil {
			t.Fatalf("Plan(%v): %v", c.req.Op, err)
		}
		if p.Rows() != c.rows {
			t.Errorf("Plan(%v).Rows() = %d, want %d", c.req.Op, p.Rows(), c.rows)
		}
		norm, _ := c.req.Normalize()
		if p.Key() != norm.Key() {
			t.Errorf("Plan(%v).Key() != canonical key", c.req.Op)
		}
	}
}

// TestRowPlanDegradedAssembly: assembling with a failed row keeps the
// healthy rows and attaches the typed markers.
func TestRowPlanDegradedAssembly(t *testing.T) {
	e := New(Options{})
	plan, err := e.Plan(Request{Op: OpSweep, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]json.RawMessage, plan.Rows())
	for i := range rows {
		if i == 2 {
			continue // the failed row stays nil
		}
		data, err := e.ExecRow(context.Background(), plan, i)
		if err != nil {
			t.Fatalf("ExecRow(%d): %v", i, err)
		}
		rows[i] = data
	}
	marker := RowError{Row: 2, Err: "injected", Panic: false}
	res, err := plan.Assemble(rows, []RowError{marker})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(res.Sweep) != plan.Rows()-1 {
		t.Errorf("degraded sweep has %d points, want %d", len(res.Sweep), plan.Rows()-1)
	}
	if len(res.RowErrors) != 1 || res.RowErrors[0] != marker {
		t.Errorf("RowErrors = %+v, want [%+v]", res.RowErrors, marker)
	}
}

// TestExecRowPanicContained: a panicking row surfaces as a *PanicError
// and bumps the engine's panic counters instead of crashing.
func TestExecRowPanicContained(t *testing.T) {
	e := New(Options{})
	plan, err := e.Plan(Request{
		Op: OpScenario, Scenario: "chaos",
		Params: map[string]float64{"rows": 3, "panicrow": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecRow(context.Background(), plan, 0); err != nil {
		t.Fatalf("healthy row: %v", err)
	}
	_, err = e.ExecRow(context.Background(), plan, 1)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking row returned %v, want *PanicError", err)
	}
	if e.panics.Value() != 1 {
		t.Errorf("Panics = %d, want 1", e.panics.Value())
	}
	if e.rowsExecuted.Value() != 2 {
		t.Errorf("RowsExecuted = %d, want 2", e.rowsExecuted.Value())
	}
}

// TestExecRowBounds: out-of-range rows are rejected, not computed.
func TestExecRowBounds(t *testing.T) {
	e := New(Options{})
	plan, err := e.Plan(Request{Op: OpSweep, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, plan.Rows()} {
		if _, err := e.ExecRow(context.Background(), plan, i); err == nil {
			t.Errorf("ExecRow(%d) succeeded, want bounds error", i)
		}
	}
	if _, err := plan.Assemble(make([]json.RawMessage, plan.Rows()+1), nil); err == nil {
		t.Error("Assemble with wrong row count succeeded")
	}
}

// TestPrime: a primed result is served as a cache hit without compute.
func TestPrime(t *testing.T) {
	e := New(Options{})
	req := Request{Op: OpSweep, Steps: 3}
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Op: norm.Op, Request: norm}
	e.Prime(norm.Key(), res)
	got, cached, err := e.Do(context.Background(), req)
	if err != nil || !cached {
		t.Fatalf("Do after Prime: cached=%v err=%v", cached, err)
	}
	if got != res {
		t.Error("Do did not serve the primed result")
	}
	// Degraded results must never be primed.
	e2 := New(Options{})
	e2.Prime(norm.Key(), &Result{Op: norm.Op, Request: norm, RowErrors: []RowError{{Row: 0, Err: "x"}}})
	if _, cached, _ := e2.Do(context.Background(), req); cached {
		t.Error("degraded result was primed into the cache")
	}
}
