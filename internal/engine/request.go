package engine

import (
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

	// Cluster scenario (the CLI's baseFlags): defaults are the paper's
	// baseline pod — 15,360 GPUs, 400 G, 10% comm ratio, 10%/85% network/
	// compute proportionality, absolute interpolation, no overlap.
	GPUs      int     `json:"gpus,omitempty"`
	Bandwidth string  `json:"bw,omitempty"`
	CommRatio float64 `json:"ratio,omitempty"`
	// NetworkProportionality doubles as the improved proportionality for
	// OpCost (default 0.50 there, 0.10 elsewhere). Pointer so that an
	// explicit 0 survives normalization.
	NetworkProportionality *float64 `json:"netprop,omitempty"`
	ComputeProportionality *float64 `json:"compprop,omitempty"`
	Interp                 string   `json:"interp,omitempty"`
	Overlap                float64  `json:"overlap,omitempty"`

	// Fig. 3 / Fig. 4 parameters.
	Budget            string    `json:"budget,omitempty"`
	Proportionalities []float64 `json:"props,omitempty"`
	FixedCommRatio    float64   `json:"fixedratio,omitempty"`

	// Sweep parameters.
	Steps int `json:"steps,omitempty"`

	// Cost parameters (§3.2).
	Price   *float64 `json:"price,omitempty"`
	Cooling *float64 `json:"cooling,omitempty"`

	// Scenario name and numeric parameters for OpScenario.
	Scenario string             `json:"scenario,omitempty"`
	Params   map[string]float64 `json:"params,omitempty"`
}

// orDefault resolves an optional float field.
func orDefault(p *float64, def float64) float64 {
	if p == nil {
		return def
	}
	return posZero(*p)
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
func (r Request) Normalize() (Request, error) {
	n := Request{Op: r.Op}
	switch r.Op {
	case OpWhatIf, OpTable3, OpFig3, OpFig4, OpSweep, OpCost, OpScenario:
	default:
		return Request{}, fmt.Errorf("engine: unknown op %q", r.Op)
	}

	if err := r.checkFinite(); err != nil {
		return Request{}, err
	}
	if r.Op == OpScenario {
		return r.normalizeScenario()
	}

	// Cluster scenario fields, shared by every analytical op.
	n.GPUs = r.GPUs
	if n.GPUs == 0 {
		n.GPUs = core.Baseline().GPUs
	}
	if n.GPUs < 1 {
		return Request{}, fmt.Errorf("engine: GPU count %d must be positive", n.GPUs)
	}
	bwStr := r.Bandwidth
	if bwStr == "" {
		bwStr = "400G"
	}
	bw, err := units.ParseBandwidth(bwStr)
	if err != nil {
		return Request{}, fmt.Errorf("engine: %w", err)
	}
	if bw <= 0 {
		return Request{}, fmt.Errorf("engine: bandwidth %v must be positive", bw)
	}
	n.Bandwidth = bw.String()
	n.CommRatio = r.CommRatio
	if n.CommRatio == 0 {
		n.CommRatio = 0.10
	}
	if n.CommRatio <= 0 || n.CommRatio >= 1 {
		return Request{}, fmt.Errorf("engine: ratio %v outside (0,1)", n.CommRatio)
	}
	defProp := 0.10
	if r.Op == OpCost {
		defProp = 0.50
	}
	netProp := orDefault(r.NetworkProportionality, defProp)
	if netProp < 0 || netProp > 1 {
		return Request{}, fmt.Errorf("engine: network proportionality %v outside [0,1]", netProp)
	}
	n.NetworkProportionality = &netProp
	compProp := orDefault(r.ComputeProportionality, 0.85)
	if compProp < 0 || compProp > 1 {
		return Request{}, fmt.Errorf("engine: compute proportionality %v outside [0,1]", compProp)
	}
	n.ComputeProportionality = &compProp
	n.Interp = r.Interp
	if n.Interp == "" {
		n.Interp = "absolute"
	}
	mode, err := fattree.ParseInterpMode(n.Interp)
	if err != nil {
		return Request{}, fmt.Errorf("engine: %w", err)
	}
	n.Interp = mode.String()
	n.Overlap = posZero(r.Overlap)
	if n.Overlap < 0 || n.Overlap >= 1 {
		return Request{}, fmt.Errorf("engine: overlap %v outside [0,1)", n.Overlap)
	}

	switch r.Op {
	case OpFig3, OpFig4:
		kind, err := core.ParseBudgetKind(r.Budget)
		if err != nil {
			return Request{}, fmt.Errorf("engine: %w", err)
		}
		n.Budget = kind.String()
		if len(r.Proportionalities) == 0 {
			n.Proportionalities = core.FigProportionalities()
		}
		for _, p := range r.Proportionalities {
			n.Proportionalities = append(n.Proportionalities, posZero(p))
		}
		for _, p := range n.Proportionalities {
			if p < 0 || p > 1 {
				return Request{}, fmt.Errorf("engine: proportionality %v outside [0,1]", p)
			}
		}
		if r.Op == OpFig4 {
			n.FixedCommRatio = r.FixedCommRatio
			if n.FixedCommRatio == 0 {
				n.FixedCommRatio = 0.10
			}
			if n.FixedCommRatio <= 0 || n.FixedCommRatio >= 1 {
				return Request{}, fmt.Errorf("engine: fixed comm ratio %v outside (0,1)", n.FixedCommRatio)
			}
		}
	case OpSweep:
		n.Steps = r.Steps
		if n.Steps == 0 {
			n.Steps = 10
		}
		if n.Steps < 1 {
			return Request{}, fmt.Errorf("engine: steps %d must be positive", n.Steps)
		}
	case OpCost:
		price := orDefault(r.Price, 0.13)
		cooling := orDefault(r.Cooling, 0.30)
		if price < 0 {
			return Request{}, fmt.Errorf("engine: negative electricity price %v", price)
		}
		if cooling < 0 {
			return Request{}, fmt.Errorf("engine: negative cooling overhead %v", cooling)
		}
		n.Price, n.Cooling = &price, &cooling
	}
	return n, nil
}

// checkFinite rejects a request carrying a NaN or infinite number in any
// float field or scenario parameter: no range check catches NaN, and the
// canonical key cannot encode either. Parameters are checked in key order,
// so the error names the same one every time.
func (r Request) checkFinite() error {
	bad, badV := "", 0.0
	note := func(name string, v float64) {
		if bad == "" && !finite(v) {
			bad, badV = name, v
		}
	}
	note("ratio", r.CommRatio)
	for _, f := range []struct {
		name string
		p    *float64
	}{
		{"network proportionality", r.NetworkProportionality},
		{"compute proportionality", r.ComputeProportionality},
		{"electricity price", r.Price},
		{"cooling overhead", r.Cooling},
	} {
		if f.p != nil {
			note(f.name, *f.p)
		}
	}
	note("overlap", r.Overlap)
	for _, p := range r.Proportionalities {
		note("proportionality", p)
	}
	note("fixed comm ratio", r.FixedCommRatio)
	if bad != "" {
		return fmt.Errorf("engine: %s %v is not a finite number", bad, badV)
	}
	for k, v := range r.Params {
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
		bwStr := r.Bandwidth
		if bwStr == "" {
			bwStr = spec.bandwidth
		}
		bw, err := units.ParseBandwidth(bwStr)
		if err != nil {
			return Request{}, fmt.Errorf("engine: %w", err)
		}
		if bw <= 0 {
			return Request{}, fmt.Errorf("engine: bandwidth %v must be positive", bw)
		}
		n.Bandwidth = bw.String()
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

// config builds the core.Config a normalized request describes, exactly as
// cmd/powerprop's baseFlags did, so CLI and server produce identical
// numbers.
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
