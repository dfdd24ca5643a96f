package engine

import (
	"cmp"
	"flag"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"netpowerprop/internal/core"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

// field declares one analytical request field. The fields table is its
// only declaration: Normalize, checkFinite, ParseQuery and Flags all read
// it. The field's kind is the type of its Request field (see slots).
type field struct {
	name, alias string // JSON key, query parameter and flag name; a second query and flag name
	help, label string // flag help; how errors name the field
	ops         opSet  // the ops that read the field; Normalize clears it for the rest

	// The default, by kind; an int or float64 reads zero as unset.
	num   float64
	numOp map[opSet]float64 // overrides num for an op
	text  string
	list  func() []float64

	in    bound                        // a number's range
	inOp  map[opSet]bound              // overrides in for an op
	canon func(string) (string, error) // a string's canonical spelling
}

// bound is a number's range: for a value outside it, the error format
// from the field's label and value; "" for a value inside it.
type bound func(v float64) string

// within is the range of the values ok accepts.
func within(ok func(v float64) bool, bad string) bound {
	return func(v float64) string {
		if ok(v) {
			return ""
		}
		return bad
	}
}

var (
	positive     = within(func(v float64) bool { return v > 0 }, "%s %v must be positive")
	nonNegative  = within(func(v float64) bool { return v >= 0 }, "negative %s %v")
	unit         = within(func(v float64) bool { return v >= 0 && v <= 1 }, "%s %v outside [0,1]")
	openUnit     = within(func(v float64) bool { return v > 0 && v < 1 }, "%s %v outside (0,1)")
	halfOpenUnit = within(func(v float64) bool { return v >= 0 && v < 1 }, "%s %v outside [0,1)")
	// stepCount caps a sweep, whose plan holds steps+1 rows in memory, at
	// five times the 20,000-step job the cluster smoke test submits.
	stepCount = func(v float64) string {
		if v > 100_000 {
			return "%s %v above the limit of 100000"
		}
		return positive(v)
	}
	// costProp is cost's netprop: the saving is priced against the
	// costReference proportionality, so a value below it saves negative power.
	costProp = within(func(v float64) bool { return v >= costReference && v <= 1 },
		"%s %v outside [0.1,1]: cost prices the saving against the 10%% reference")
)

// opSet is a set of ops, one bit per allOps entry; opsOf of an unknown op
// is empty.
type opSet uint32

func opsOf(ops ...Op) (s opSet) {
	for i, op := range allOps {
		if slices.Contains(ops, op) {
			s |= 1 << i
		}
	}
	return s
}

var analytical = opsOf(OpWhatIf, OpTable3, OpFig3, OpFig4, OpSweep, OpCost)

// fields declares every analytical request field in Request's field order,
// which is the order Normalize checks them and ParseQuery reads them: a
// request with two bad fields is refused for the first.
var fields = [...]field{
	{name: "gpus", help: "cluster size in GPUs", label: "GPU count",
		ops: analytical, num: float64(core.Baseline().GPUs), in: positive},
	{name: "bw", help: "network bandwidth per GPU",
		ops: analytical, text: "400G", canon: canonBandwidth},
	{name: "ratio", help: "communication ratio of the baseline workload", label: "ratio",
		ops: analytical, num: core.Baseline().Workload.CommRatio(), in: openUnit},
	{name: "netprop", alias: "prop", help: "network power proportionality (for cost, the improved one)",
		label: "network proportionality", ops: analytical,
		num: core.Baseline().NetworkProportionality, numOp: map[opSet]float64{opsOf(OpCost): 0.50},
		in: unit, inOp: map[opSet]bound{opsOf(OpCost): costProp}},
	{name: "compprop", help: "compute power proportionality", label: "compute proportionality",
		ops: analytical, num: core.Baseline().ComputeProportionality, in: unit},
	{name: "interp", help: "fat-tree interpolation mode (absolute|perhost)",
		ops: analytical, text: core.Baseline().Interp.String(), canon: spelling(fattree.ParseInterpMode)},
	{name: "overlap", help: "fraction of communication hidden behind computation (§3.4)", label: "overlap",
		ops: analytical, in: halfOpenUnit},
	{name: "budget", help: "power budget kind (avg|peak)",
		ops: opsOf(OpFig3, OpFig4), text: core.AvgBudget.String(), canon: spelling(core.ParseBudgetKind)},
	{name: "props", help: "proportionality grid of the speedup curves", label: "proportionality",
		ops: opsOf(OpFig3, OpFig4), list: core.FigProportionalities, in: unit},
	{name: "fixedratio", help: "pinned communication ratio", label: "fixed comm ratio",
		ops: opsOf(OpFig4), num: 0.10, in: openUnit},
	{name: "steps", help: "proportionality steps between 0 and 1", label: "steps",
		ops: opsOf(OpSweep), num: 10, in: stepCount},
	{name: "price", help: "electricity price ($/kWh)", label: "electricity price",
		ops: opsOf(OpCost), num: core.DefaultCostModel().PricePerKWh, in: nonNegative},
	{name: "cooling", help: "cooling overhead fraction", label: "cooling overhead",
		ops: opsOf(OpCost), num: core.DefaultCostModel().CoolingOverhead, in: nonNegative},
}

// slots points at r's declared fields in fields order: *int, *float64,
// **float64 (optional: an explicit 0 survives), *string or *[]float64, so
// callers switch on kind without reflect or moving r to the heap.
func (r *Request) slots() [len(fields)]any {
	return [len(fields)]any{&r.GPUs, &r.Bandwidth, &r.CommRatio, &r.NetworkProportionality,
		&r.ComputeProportionality, &r.Interp, &r.Overlap, &r.Budget, &r.Proportionalities,
		&r.FixedCommRatio, &r.Steps, &r.Price, &r.Cooling}
}

// def is a number's default for the op in ops.
func (f *field) def(ops opSet) float64 {
	if v, ok := f.numOp[ops]; ok {
		return v
	}
	return f.num
}

func (f *field) rangeErr(bad string, v any) error {
	return fmt.Errorf("engine: "+bad, f.label, v)
}

// normalize resolves f for the op in ops from the src slot into the dst
// slot: the default if unset, then the canonical spelling (negative zero
// folded to zero) and the range check for the op.
func (f *field) normalize(ops opSet, src, dst any) (err error) {
	in, ok := f.inOp[ops]
	if !ok {
		in = f.in
	}
	var v float64
	switch p := src.(type) {
	case *int:
		n := cmp.Or(*p, int(f.def(ops)))
		*dst.(*int), v = n, float64(n)
	case *float64:
		v = cmp.Or(posZero(*p), f.def(ops))
		*dst.(*float64) = v
	case **float64:
		w := f.def(ops)
		if *p != nil {
			w = posZero(**p)
		}
		*dst.(**float64), v = &w, w
	case *string:
		*dst.(*string), err = f.canon(cmp.Or(*p, f.text))
		return err
	case *[]float64:
		vs := f.list()
		if len(*p) > 0 {
			vs = append([]float64(nil), *p...)
		}
		for i := range vs {
			if vs[i] = posZero(vs[i]); in(vs[i]) != "" {
				return f.rangeErr(in(vs[i]), vs[i])
			}
		}
		*dst.(*[]float64) = vs
		return nil
	}
	bad := in(v)
	if bad == "" {
		return nil
	}
	if n, ok := dst.(*int); ok {
		return f.rangeErr(bad, *n)
	}
	return f.rangeErr(bad, v)
}

func canonBandwidth(s string) (string, error) {
	bw, err := units.ParseBandwidth(s)
	if err != nil {
		return "", fmt.Errorf("engine: %w", err)
	}
	if bw <= 0 {
		return "", fmt.Errorf("engine: bandwidth %v must be positive", bw)
	}
	return bw.String(), nil
}

// spelling canonicalizes a string as parse reads it.
func spelling[T fmt.Stringer](parse func(string) (T, error)) func(string) (string, error) {
	return func(s string) (string, error) {
		v, err := parse(s)
		if err != nil {
			return "", fmt.Errorf("engine: %w", err)
		}
		return v.String(), nil
	}
}

// ParseQuery reads a request's declared fields from URL query parameters
// named after them; given both, the alias wins. A number present but empty
// is malformed; an empty string or list is left unset. Op is the caller's.
func ParseQuery(q url.Values) (Request, error) {
	var r Request
	slots := r.slots()
	for i := range fields {
		for _, name := range [...]string{fields[i].name, fields[i].alias} {
			if name == "" || !q.Has(name) {
				continue
			}
			if err := parseText(slots[i], q.Get(name)); err != nil {
				return Request{}, fmt.Errorf("parameter %s: %w", name, err)
			}
		}
	}
	return r, nil
}

// parseText sets the field slot points at from text: a base-10 int, a
// float, a string, or comma-separated floats.
func parseText(slot any, s string) (err error) {
	switch p := slot.(type) {
	case *int:
		*p, err = strconv.Atoi(s)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case **float64:
		*p = new(float64)
		**p, err = strconv.ParseFloat(s, 64)
	case *string:
		*p = s
	case *[]float64:
		if s == "" {
			return nil
		}
		for _, part := range strings.Split(s, ",") {
			var v float64
			if v, err = strconv.ParseFloat(strings.TrimSpace(part), 64); err != nil {
				return err
			}
			*p = append(*p, v)
		}
	}
	return err
}

// Flags declares a flag on fs for each field named (by name or alias),
// reading ParseQuery's syntax, and returns the request the flags fill once
// fs is parsed. A field not given stays unset for Normalize to default; a
// given value is checked as given, so one that Normalize would read as
// unset and the field refuses (-gpus 0, -ratio 0, -fixedratio 0, -steps 0,
// -bw "") is refused rather than silently replaced by the default.
func Flags(fs *flag.FlagSet, op Op, names ...string) *Request {
	req, ops := &Request{Op: op}, opsOf(op)
	slots := req.slots()
	for _, name := range names {
		i := slices.IndexFunc(fields[:], func(f field) bool { return f.name == name || f.alias == name })
		f := &fields[i]
		help := fmt.Sprintf("%s (default %s)", f.help, cmp.Or(f.text, fmt.Sprint(f.def(ops))))
		asGiven := *f
		asGiven.num, asGiven.numOp, asGiven.text = 0, nil, ""
		fs.Func(name, help, func(s string) error {
			if err := parseText(slots[i], s); err != nil {
				return err
			}
			if err := checkFinite(&slots, nil); err != nil {
				return err
			}
			var scratch Request
			return asGiven.normalize(ops, slots[i], scratch.slots()[i])
		})
	}
	return req
}

// ClusterConfig is the core.Config of the cluster scenario req describes,
// resolved as a whatif request is: Normalize, then config.
func ClusterConfig(req Request) (core.Config, error) {
	req.Op = OpWhatIf
	norm, err := req.Normalize()
	if err != nil {
		return core.Config{}, err
	}
	return norm.config()
}
