package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"netpowerprop/internal/core"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/units"
)

// This file is the engine's single execution model: every request is
// planned into a RowPlan of independently computable rows, the rows run
// through the bounded worker pool, and the plan assembles them into the
// Result. Do and DoBatch run a plan's rows concurrently and assemble the
// typed row values directly; Stream and the jobs subsystem (internal/jobs)
// run rows one at a time through ExecRow, which hands back each row's
// canonical JSON payload so it can be streamed or journaled, and Assemble
// rebuilds the identical Result from those payloads.

// RowError is the typed per-row failure marker a degraded job carries in
// place of the row's payload: the row index, the final error text after
// retries were exhausted, and whether the failure was a contained panic.
type RowError struct {
	Row   int    `json:"row"`
	Err   string `json:"error"`
	Panic bool   `json:"panic,omitempty"`
}

// Error renders the marker as an ordinary error.
func (e RowError) Error() string {
	if e.Panic {
		return fmt.Sprintf("row %d panicked: %s", e.Row, e.Err)
	}
	return fmt.Sprintf("row %d failed: %s", e.Row, e.Err)
}

// RowPlan is one request split into independent rows. Each row computes a
// typed value whose JSON encoding is self-contained, so it can be
// journaled and replayed: Assemble rebuilds the Result from any mix of
// freshly computed and replayed payloads, and the bytes are identical to
// the Result Do assembles from the typed values.
type RowPlan struct {
	req Request
	n   int
	// row computes one row's value on the worker slot's simulator; decode
	// turns its JSON payload back into the same value.
	row    func(ctx context.Context, sim *netsim.Sim, i int) (any, error)
	decode func(raw json.RawMessage) (any, error)
	// assemble receives one value per row, nil where the row failed.
	assemble func(rows []any) (*Result, error)
}

// planOf builds a plan whose rows compute values of type T; assemble
// receives them in row order, nil where a row failed. A row that simulates
// runs on sim, its worker slot's simulator, after resetting it.
func planOf[T any](norm Request, n int, row func(ctx context.Context, sim *netsim.Sim, i int) (T, error),
	assemble func(rows []*T) (*Result, error)) *RowPlan {
	return &RowPlan{
		req: norm,
		n:   n,
		row: func(ctx context.Context, sim *netsim.Sim, i int) (any, error) {
			v, err := row(ctx, sim, i)
			if err != nil {
				return nil, err
			}
			return &v, nil
		},
		decode: func(raw json.RawMessage) (any, error) {
			v := new(T)
			if err := json.Unmarshal(raw, v); err != nil {
				return nil, fmt.Errorf("engine: replay %s row: %w", norm.Op, err)
			}
			return v, nil
		},
		assemble: func(rows []any) (*Result, error) {
			typed := make([]*T, len(rows))
			for i, v := range rows {
				if v != nil {
					typed[i] = v.(*T)
				}
			}
			return assemble(typed)
		},
	}
}

// present returns the values of the rows that did not fail, in row order.
func present[T any](rows []*T) []T {
	var out []T
	for _, v := range rows {
		if v != nil {
			out = append(out, *v)
		}
	}
	return out
}

// NewRowPlan builds a plan over raw JSON rows, for executors other than
// the engine: row computes a payload, assemble receives one payload per
// row (nil where the row failed).
func NewRowPlan(req Request, n int,
	row func(ctx context.Context, i int) (json.RawMessage, error),
	assemble func(rows []json.RawMessage) (*Result, error)) *RowPlan {
	return planOf(req, n, func(ctx context.Context, _ *netsim.Sim, i int) (json.RawMessage, error) {
		return row(ctx, i)
	}, func(rows []*json.RawMessage) (*Result, error) {
		raw := make([]json.RawMessage, len(rows))
		for i, r := range rows {
			if r != nil {
				raw[i] = *r
			}
		}
		return assemble(raw)
	})
}

// Rows is the number of independent rows.
func (p *RowPlan) Rows() int { return p.n }

// Key is the canonical key of the normalized request — the jobs
// subsystem's idempotency token.
func (p *RowPlan) Key() string { return p.req.Key() }

// Request returns the normalized request the plan computes.
func (p *RowPlan) Request() Request { return p.req }

// Assemble rebuilds the Result from the row payloads. rows must have
// exactly Rows() entries; a nil entry must have a matching RowError in
// failed. When failed is empty the assembled Result is byte-identical
// (as JSON) to the one Do returns; otherwise the Result carries the
// successful rows plus the markers.
func (p *RowPlan) Assemble(rows []json.RawMessage, failed []RowError) (*Result, error) {
	if len(rows) != p.n {
		return nil, fmt.Errorf("engine: assemble got %d rows, plan has %d", len(rows), p.n)
	}
	vals := make([]any, p.n)
	for i, raw := range rows {
		if raw == nil {
			continue
		}
		v, err := p.decode(raw)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	res, err := p.assemble(vals)
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		res.RowErrors = failed
	}
	return res, nil
}

// Plan normalizes a request and splits it into independent rows: sweeps
// split per point, Table 3 and Figs. 3/4 per bandwidth, row-structured
// scenarios per table row, and everything else into a single row. The
// split is chosen so rows share no results: a row's bytes depend only on
// the request and its index, never on which rows ran before it or on the
// worker slot's simulator it ran on. That is what lets them run
// concurrently, retry, and replay without changing a byte.
func (e *Engine) Plan(req Request) (*RowPlan, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	return planRows(norm, e.models)
}

// planRows builds the per-op plan for a normalized request. models are
// the co-simulation hooks scenario simulations attach (nil: in-process).
func planRows(norm Request, models *netsim.Models) (*RowPlan, error) {
	switch norm.Op {
	case OpWhatIf:
		return planWhatIf(norm), nil
	case OpTable3:
		return planTable3(norm)
	case OpFig3, OpFig4:
		return planFig(norm)
	case OpSweep:
		return planSweep(norm), nil
	case OpCost:
		return planCost(norm), nil
	case OpScenario:
		return scenarios[norm.Scenario].plan(norm, models)
	}
	return nil, fmt.Errorf("engine: unknown op %q", norm.Op)
}

// wholeRow plans a request computed in one piece as a single row whose
// payload is the whole Result (an empty one if the row failed).
func wholeRow(norm Request, compute func(res *Result) error) *RowPlan {
	return planOf(norm, 1,
		func(context.Context, *netsim.Sim, int) (Result, error) {
			res := Result{Op: norm.Op, Request: norm}
			if err := compute(&res); err != nil {
				return Result{}, err
			}
			return res, nil
		},
		func(rows []*Result) (*Result, error) {
			if rows[0] == nil {
				return &Result{Op: norm.Op, Request: norm}, nil
			}
			return rows[0], nil
		})
}

// planWhatIf sizes one cluster scenario as a single row.
func planWhatIf(norm Request) *RowPlan {
	return wholeRow(norm, func(res *Result) error {
		cfg, err := norm.config()
		if err != nil {
			return err
		}
		cl, err := core.New(cfg)
		if err != nil {
			return err
		}
		res.Cluster = summarize(cl)
		return nil
	})
}

// planSweep splits a proportionality sweep into one row per point. Each
// row recomputes the proportionality-0 reference itself (core.New is
// analytic and cheap) so rows stay independent; the reference is
// deterministic, so every row prices savings against identical bytes.
func planSweep(norm Request) *RowPlan {
	return planOf(norm, norm.Steps+1,
		func(_ context.Context, _ *netsim.Sim, i int) (SweepPoint, error) { return sweepRow(norm, i) },
		func(rows []*SweepPoint) (*Result, error) {
			return &Result{Op: norm.Op, Request: norm, Sweep: present(rows)}, nil
		})
}

// sweepRow computes sweep point i of steps+1 from proportionality 0 to 1,
// with savings relative to the proportionality-0 point.
func sweepRow(req Request, i int) (SweepPoint, error) {
	cfg, err := req.config()
	if err != nil {
		return SweepPoint{}, err
	}
	refCfg := cfg
	refCfg.NetworkProportionality = 0
	refCl, err := core.New(refCfg)
	if err != nil {
		return SweepPoint{}, err
	}
	refPower := refCl.AveragePower()
	p := float64(i) / float64(req.Steps)
	c := cfg
	c.NetworkProportionality = p
	cl, err := core.New(c)
	if err != nil {
		return SweepPoint{}, err
	}
	avg := cl.AveragePower()
	return SweepPoint{
		Proportionality:   p,
		AveragePower:      powerQ(avg),
		PeakPower:         powerQ(cl.PeakPower()),
		NetworkShare:      cl.NetworkShare(),
		NetworkEfficiency: cl.NetworkEfficiency(),
		Savings:           float64(refPower-avg) / float64(refPower),
	}, nil
}

// table3Row is the payload of one Table 3 bandwidth row.
type table3Row struct {
	Bandwidth Quantity   `json:"bandwidth"`
	Cells     []GridCell `json:"cells"`
}

// planTable3 splits the savings grid by bandwidth row: the grid's
// reference power is per bandwidth, so rows are naturally independent.
func planTable3(norm Request) (*RowPlan, error) {
	cfg, err := norm.config()
	if err != nil {
		return nil, err
	}
	bws := core.Table3Bandwidths()
	return planOf(norm, len(bws),
		func(_ context.Context, _ *netsim.Sim, i int) (table3Row, error) {
			grid, err := core.ComputeSavingsGrid(cfg, bws[i:i+1],
				core.Table3Proportionalities(), cfg.NetworkProportionality)
			if err != nil {
				return table3Row{}, err
			}
			row := table3Row{Bandwidth: bandwidthQ(bws[i])}
			for j := range grid.Proportionalities {
				c := grid.Cell(0, j)
				row.Cells = append(row.Cells, GridCell{
					Savings:      c.Savings,
					AveragePower: powerQ(c.AveragePower),
					SavedPower:   powerQ(c.SavedPower),
				})
			}
			return row, nil
		},
		func(rows []*table3Row) (*Result, error) {
			g := &Grid{
				RefProportionality: *norm.NetworkProportionality,
				Interp:             norm.Interp,
				Proportionalities:  core.Table3Proportionalities(),
			}
			for _, row := range present(rows) {
				g.Bandwidths = append(g.Bandwidths, row.Bandwidth)
				g.Cells = append(g.Cells, row.Cells)
			}
			return &Result{Op: norm.Op, Request: norm, Grid: g}, nil
		}), nil
}

// planFig splits the Fig. 3/4 speedup curves by bandwidth: every curve
// optimizes against the baseline's power budget, and Fig. 4's reference
// is per bandwidth, so each curve is an independent row. Fig. 3's
// crossovers compare all curves and are derived at assembly.
func planFig(norm Request) (*RowPlan, error) {
	cfg, err := norm.config()
	if err != nil {
		return nil, err
	}
	kind, err := core.ParseBudgetKind(norm.Budget)
	if err != nil {
		return nil, err
	}
	bws := core.Table3Bandwidths()
	return planOf(norm, len(bws),
		func(_ context.Context, _ *netsim.Sim, i int) (core.SpeedupCurve, error) {
			var curves []core.SpeedupCurve
			var err error
			if norm.Op == OpFig3 {
				curves, err = core.Fig3(cfg, bws[i:i+1], norm.Proportionalities, kind)
			} else {
				curves, err = core.Fig4(cfg, bws[i:i+1], norm.Proportionalities, norm.FixedCommRatio, kind)
			}
			if err != nil {
				return core.SpeedupCurve{}, err
			}
			return curves[0], nil
		},
		func(rows []*core.SpeedupCurve) (*Result, error) {
			curves := present(rows)
			res := &Result{Op: norm.Op, Request: norm, Curves: curvesOf(curves)}
			if norm.Op == OpFig3 && len(curves) == len(rows) {
				cross, err := core.BestBandwidth(curves)
				if err != nil {
					return nil, err
				}
				res.Crossovers = crossoversOf(cross)
			}
			return res, nil
		}), nil
}

// costReference is the network proportionality cost prices a saving
// against: the 10% baseline. cost's netprop range starts at it.
const costReference = 0.10

// planCost reproduces §3.2 as a single row: the power saved by lifting
// the scenario's network proportionality from the 10% baseline to the
// requested value, annualized with the given cost model.
func planCost(norm Request) *RowPlan {
	return wholeRow(norm, func(res *Result) error {
		cfg, err := norm.config()
		if err != nil {
			return err
		}
		prop := *norm.NetworkProportionality
		grid, err := core.ComputeSavingsGrid(cfg, []units.Bandwidth{cfg.Bandwidth}, []float64{prop}, costReference)
		if err != nil {
			return err
		}
		saved := grid.Cell(0, 0).SavedPower
		model := core.CostModel{PricePerKWh: *norm.Price, CoolingOverhead: *norm.Cooling}
		s, err := model.Annualize(saved)
		if err != nil {
			return err
		}
		res.Cost = &CostResult{
			Proportionality:    prop,
			RefProportionality: costReference,
			SavedPower:         powerQ(saved),
			ElectricityPerYear: s.ElectricityPerYear,
			CoolingPerYear:     s.CoolingPerYear,
			TotalPerYear:       s.Total(),
		}
		return nil
	})
}
