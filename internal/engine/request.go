package engine

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"netpowerprop/internal/core"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
	"netpowerprop/internal/workload"
)

// Op identifies the computation a Request asks for.
type Op string

// The engine's operations. Each maps onto one paper artifact (or a §4
// mechanism simulation) and one `/v1/<op>` endpoint of cmd/serve.
const (
	// OpWhatIf sizes a single cluster scenario and reports its power,
	// share, and efficiency metrics (Fig. 2's underlying quantities).
	OpWhatIf Op = "whatif"
	// OpTable3 evaluates the savings grid of Table 3 for the scenario.
	OpTable3 Op = "table3"
	// OpFig3 evaluates the fixed-workload speedup curves of Fig. 3.
	OpFig3 Op = "fig3"
	// OpFig4 evaluates the fixed-comm-ratio speedup curves of Fig. 4.
	OpFig4 Op = "fig4"
	// OpSweep runs a proportionality sweep for one scenario.
	OpSweep Op = "sweep"
	// OpCost annualizes the §3.2 cost savings of a proportionality upgrade.
	OpCost Op = "cost"
	// OpScenario runs a named §4 mechanism simulation (see ScenarioNames).
	OpScenario Op = "scenario"
)

// Request is one what-if query. The zero value of every field means "use
// the paper's default"; Normalize resolves defaults so that two requests
// asking for the same computation share one canonical cache key.
type Request struct {
	Op Op `json:"op"`

	// The analytical fields, through Cooling: the fields table declares
	// each one's name, default (the paper's baseline pod), range and the
	// ops that read it.
	GPUs      int     `json:"gpus,omitempty"`
	Bandwidth string  `json:"bw,omitempty"`
	CommRatio float64 `json:"ratio,omitempty"`
	// NetworkProportionality doubles as the improved proportionality for
	// OpCost, which has a default of its own.
	NetworkProportionality *float64  `json:"netprop,omitempty"`
	ComputeProportionality *float64  `json:"compprop,omitempty"`
	Interp                 string    `json:"interp,omitempty"`
	Overlap                float64   `json:"overlap,omitempty"`
	Budget                 string    `json:"budget,omitempty"`
	Proportionalities      []float64 `json:"props,omitempty"`
	FixedCommRatio         float64   `json:"fixedratio,omitempty"`
	Steps                  int       `json:"steps,omitempty"`
	Price                  *float64  `json:"price,omitempty"`
	Cooling                *float64  `json:"cooling,omitempty"`

	// Scenario name and numeric parameters for OpScenario.
	Scenario string             `json:"scenario,omitempty"`
	Params   map[string]float64 `json:"params,omitempty"`
}

// posZero folds negative zero to positive zero. Normalize applies it to
// every float it keeps, so -0 and 0 share one canonical key: the key's
// JSON encoding would otherwise spell them "-0" and "0".
func posZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// Normalize validates the request and resolves every default, returning
// the canonical form: two requests describing the same computation
// normalize to identical values (and therefore identical cache keys).
// Fields irrelevant to the op are cleared so they cannot fragment the key.
// The analytical fields are resolved as the fields table declares them.
func (r Request) Normalize() (Request, error) {
	ops := opsOf(r.Op)
	if ops == 0 {
		return Request{}, fmt.Errorf("engine: unknown op %q", r.Op)
	}
	src := r.slots()
	if err := checkFinite(&src, r.Params); err != nil {
		return Request{}, err
	}
	if r.Op == OpScenario {
		return r.normalizeScenario()
	}
	n := Request{Op: r.Op}
	dst := n.slots()
	for i := range fields {
		if f := &fields[i]; f.ops&ops != 0 {
			if err := f.normalize(ops, src[i], dst[i]); err != nil {
				return Request{}, err
			}
		}
	}
	return n, nil
}

// checkFinite rejects a NaN or infinite number in any declared field
// (slots), read by the op or not, or in a scenario parameter: no range
// check catches NaN, and the key cannot encode either. Fields are checked
// in declaration order and parameters in key order, so the error names the
// same one every time.
func checkFinite(slots *[len(fields)]any, params map[string]float64) error {
	for i, slot := range slots {
		var vs []float64
		switch p := slot.(type) {
		case *float64:
			vs = []float64{*p}
		case **float64:
			if *p != nil {
				vs = []float64{**p}
			}
		case *[]float64:
			vs = *p
		}
		for _, v := range vs {
			if !finite(v) {
				return fmt.Errorf("engine: %s %v is not a finite number", fields[i].label, v)
			}
		}
	}
	bad, badV := "", 0.0
	for k, v := range params {
		if !finite(v) && (bad == "" || k < bad) {
			bad, badV = k, v
		}
	}
	if bad != "" {
		return fmt.Errorf("engine: scenario parameter %q %v is not a finite number", bad, badV)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// normalizeScenario resolves a scenario request against the scenario
// registry: the scenario must exist, unknown parameters are rejected,
// each given value must be of its parameter's kind, and missing
// parameters take the scenario's defaults. Parameters are checked in
// declaration order, and an unknown one is named in sort order, so the
// error is the same every time.
func (r Request) normalizeScenario() (Request, error) {
	spec, ok := scenarios[r.Scenario]
	if !ok {
		return Request{}, fmt.Errorf("engine: unknown scenario %q (have %v)", r.Scenario, ScenarioNames())
	}
	n := Request{Op: OpScenario, Scenario: r.Scenario}
	params := make(map[string]float64, len(spec.params))
	for _, p := range spec.params {
		v, set := r.Params[p.Name]
		if !set {
			v = p.Default
		} else if err := p.Kind.check(v); err != nil {
			return Request{}, fmt.Errorf("engine: scenario %q parameter %q: %w", r.Scenario, p.Name, err)
		}
		params[p.Name] = posZero(v)
	}
	unknown := ""
	for k := range r.Params {
		if _, ok := params[k]; !ok && (unknown == "" || k < unknown) {
			unknown = k
		}
	}
	if unknown != "" {
		return Request{}, fmt.Errorf("engine: scenario %q has no parameter %q", r.Scenario, unknown)
	}
	if len(params) > 0 {
		n.Params = params
	}
	if spec.bandwidth != "" {
		var err error
		if n.Bandwidth, err = canonBandwidth(cmp.Or(r.Bandwidth, spec.bandwidth)); err != nil {
			return Request{}, err
		}
	}
	return n, nil
}

// Key returns the canonical cache key of a normalized request: its JSON
// encoding (struct fields in declaration order, map keys sorted).
func (r Request) Key() string {
	b, err := json.Marshal(r)
	if err != nil {
		// A Request is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("engine: marshal request: %v", err))
	}
	return string(b)
}

// config builds the core.Config a normalized request's cluster fields
// describe. It is the only such builder: the analytical ops and, through
// ClusterConfig, powerprop's fig2 and scaling use it.
func (r Request) config() (core.Config, error) {
	bw, err := units.ParseBandwidth(r.Bandwidth)
	if err != nil {
		return core.Config{}, fmt.Errorf("engine: %w", err)
	}
	mode, err := fattree.ParseInterpMode(r.Interp)
	if err != nil {
		return core.Config{}, fmt.Errorf("engine: %w", err)
	}
	wl, err := workload.New(units.Seconds(1-r.CommRatio), units.Seconds(r.CommRatio), r.GPUs, bw)
	if err != nil {
		return core.Config{}, fmt.Errorf("engine: %w", err)
	}
	return core.Config{
		GPUs:                   r.GPUs,
		Bandwidth:              bw,
		Workload:               wl,
		ComputeProportionality: *r.ComputeProportionality,
		NetworkProportionality: *r.NetworkProportionality,
		Interp:                 mode,
		Overlap:                r.Overlap,
	}, nil
}

// ScenarioNames lists the registered §4 mechanism scenarios, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
