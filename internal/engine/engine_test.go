package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"netpowerprop/internal/core"
)

// ptr returns a pointer to v, for filling optional Request fields.
func ptr(v float64) *float64 { return &v }

func do(t *testing.T, e *Engine, req Request) *Result {
	t.Helper()
	res, _, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do(%+v): %v", req, err)
	}
	return res
}

func TestNormalizeDefaults(t *testing.T) {
	n, err := Request{Op: OpWhatIf}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if n.GPUs != 15360 || n.Bandwidth != "400 Gbps" || n.CommRatio != 0.10 {
		t.Errorf("unexpected defaults: %+v", n)
	}
	if *n.NetworkProportionality != 0.10 || *n.ComputeProportionality != 0.85 {
		t.Errorf("unexpected proportionality defaults: %+v", n)
	}
	if n.Interp != "absolute" {
		t.Errorf("interp = %q, want absolute", n.Interp)
	}
	// OpCost defaults to the paper's §3.2 scenario: 50% proportionality.
	c, err := Request{Op: OpCost}.Normalize()
	if err != nil {
		t.Fatalf("Normalize cost: %v", err)
	}
	if *c.NetworkProportionality != 0.50 || *c.Price != 0.13 || *c.Cooling != 0.30 {
		t.Errorf("unexpected cost defaults: %+v", c)
	}
}

// TestKeyCanonical checks that a request spelled with explicit defaults and
// one spelled with zero values share a cache key.
func TestKeyCanonical(t *testing.T) {
	a, err := Request{Op: OpWhatIf}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{
		Op:                     OpWhatIf,
		GPUs:                   15360,
		Bandwidth:              "400G",
		CommRatio:              0.10,
		NetworkProportionality: ptr(0.10),
		ComputeProportionality: ptr(0.85),
		Interp:                 "absolute",
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ:\n%s\n%s", a.Key(), b.Key())
	}
	// A different scenario gets a different key.
	c, err := Request{Op: OpWhatIf, GPUs: 1024}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Errorf("distinct requests share key %s", a.Key())
	}
}

// TestNegativeZeroKey checks that -0 and 0 share one canonical key in
// every float field a request keeps and in scenario parameters, so a -0
// spelling neither splits the cache nor echoes "-0" in a result.
func TestNegativeZeroKey(t *testing.T) {
	for _, tc := range []struct {
		field string
		req   func(v float64) Request
	}{
		{"ratio", func(v float64) Request { return Request{Op: OpWhatIf, CommRatio: v} }},
		{"netprop", func(v float64) Request { return Request{Op: OpWhatIf, NetworkProportionality: &v} }},
		{"compprop", func(v float64) Request { return Request{Op: OpWhatIf, ComputeProportionality: &v} }},
		{"overlap", func(v float64) Request { return Request{Op: OpSweep, Overlap: v} }},
		{"props", func(v float64) Request { return Request{Op: OpFig3, Proportionalities: []float64{v, 0.5}} }},
		{"fixedratio", func(v float64) Request { return Request{Op: OpFig4, FixedCommRatio: v} }},
		{"price", func(v float64) Request { return Request{Op: OpCost, Price: &v} }},
		{"cooling", func(v float64) Request { return Request{Op: OpCost, Cooling: &v} }},
		{"float param", func(v float64) Request {
			return Request{Op: OpScenario, Scenario: "chaos", Params: map[string]float64{"sleep": v}}
		}},
		{"bool param", func(v float64) Request {
			return Request{Op: OpScenario, Scenario: "chaos", Params: map[string]float64{"panic": v}}
		}},
	} {
		neg, err := tc.req(math.Copysign(0, -1)).Normalize()
		if err != nil {
			t.Fatalf("%s=-0: %v", tc.field, err)
		}
		pos, err := tc.req(0).Normalize()
		if err != nil {
			t.Fatalf("%s=0: %v", tc.field, err)
		}
		if neg.Key() != pos.Key() {
			t.Errorf("%s: key of -0 differs from key of 0:\n%s\n%s", tc.field, neg.Key(), pos.Key())
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	bad := []Request{
		{Op: "bogus"},
		{Op: OpWhatIf, Bandwidth: "nonsense"},
		{Op: OpWhatIf, CommRatio: 1.5},
		{Op: OpWhatIf, GPUs: -1},
		{Op: OpWhatIf, NetworkProportionality: ptr(2.0)},
		{Op: OpWhatIf, Interp: "bogus"},
		{Op: OpWhatIf, Overlap: 1.0},
		{Op: OpFig3, Budget: "bogus"},
		{Op: OpFig3, Proportionalities: []float64{-0.5}},
		{Op: OpFig4, FixedCommRatio: 2},
		{Op: OpSweep, Steps: -3},
		{Op: OpSweep, Steps: 100_001},
		{Op: OpCost, Price: ptr(-1.0)},
		{Op: OpCost, NetworkProportionality: ptr(0.05)},
		{Op: OpScenario, Scenario: "bogus"},
		{Op: OpScenario, Scenario: "gating", Params: map[string]float64{"nosuch": 1}},
	}
	for _, req := range bad {
		if _, err := req.Normalize(); err == nil {
			t.Errorf("Normalize(%+v): expected error", req)
		}
	}
	// Only cost's netprop starts at its reference; the limits are inside.
	for _, req := range []Request{
		{Op: OpWhatIf, NetworkProportionality: ptr(0.05)},
		{Op: OpCost, NetworkProportionality: ptr(0.10)},
		{Op: OpSweep, Steps: 100_000},
	} {
		if _, err := req.Normalize(); err != nil {
			t.Errorf("Normalize(%+v) = %v, want no error", req, err)
		}
	}
}

// Every non-finite number a request can carry is a validation error from
// Normalize, not a panic when Do encodes the canonical key.
func TestNonFiniteRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"whatif ratio NaN", Request{Op: OpWhatIf, CommRatio: nan}, "ratio"},
		{"sweep ratio NaN", Request{Op: OpSweep, CommRatio: nan}, "ratio"},
		{"network proportionality NaN", Request{Op: OpWhatIf, NetworkProportionality: ptr(nan)}, "network proportionality"},
		{"compute proportionality -Inf", Request{Op: OpTable3, ComputeProportionality: ptr(-inf)}, "compute proportionality"},
		{"overlap NaN", Request{Op: OpWhatIf, Overlap: nan}, "overlap"},
		{"proportionalities NaN", Request{Op: OpFig3, Proportionalities: []float64{0.5, nan}}, "proportionality"},
		{"fixed comm ratio NaN", Request{Op: OpFig4, FixedCommRatio: nan}, "fixed comm ratio"},
		{"price +Inf", Request{Op: OpCost, Price: ptr(inf)}, "electricity price"},
		{"cooling NaN", Request{Op: OpCost, Cooling: ptr(nan)}, "cooling overhead"},
		{"scenario param +Inf", Request{Op: OpScenario, Scenario: "topologies", Params: map[string]float64{"level": inf}}, `"level"`},
		{"scenario params name the first key", Request{Op: OpScenario, Scenario: "faults",
			Params: map[string]float64{"seed": nan, "iters": inf, "mttr": nan}}, `"iters"`},
	}
	e := New(Options{})
	for _, c := range cases {
		if _, err := c.req.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("%s: Normalize err = %v, want a non-finite %s error", c.name, err, c.want)
		}
		if _, _, err := e.Do(context.Background(), c.req); err == nil {
			t.Errorf("%s: Do succeeded, want an error", c.name)
		}
	}
	if e.errors.Value() != uint64(len(cases)) {
		t.Errorf("errors = %d, want %d", e.errors.Value(), len(cases))
	}
}

// TestWhatIfMatchesCore pins the engine's whatif summary to the model's
// baseline cluster, so the server serves exactly the CLI's numbers.
func TestWhatIfMatchesCore(t *testing.T) {
	cl, err := core.New(core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	res := do(t, New(Options{}), Request{Op: OpWhatIf})
	s := res.Cluster
	if s == nil {
		t.Fatal("no cluster summary")
	}
	if s.AveragePower.Value != float64(cl.AveragePower()) {
		t.Errorf("average power %v != core %v", s.AveragePower.Value, float64(cl.AveragePower()))
	}
	if s.NetworkShare != cl.NetworkShare() {
		t.Errorf("network share %v != core %v", s.NetworkShare, cl.NetworkShare())
	}
	if s.NetworkEfficiency != cl.NetworkEfficiency() {
		t.Errorf("network efficiency %v != core %v", s.NetworkEfficiency, cl.NetworkEfficiency())
	}
	if s.AveragePower.Label != cl.AveragePower().String() {
		t.Errorf("average power label %q != core %q", s.AveragePower.Label, cl.AveragePower().String())
	}
}

// TestTable3MatchesCore pins the engine's grid to core.Table3 cell by cell.
func TestTable3MatchesCore(t *testing.T) {
	want, err := core.Table3()
	if err != nil {
		t.Fatal(err)
	}
	res := do(t, New(Options{}), Request{Op: OpTable3})
	g := res.Grid
	if g == nil {
		t.Fatal("no grid")
	}
	if len(g.Cells) != len(want.Bandwidths) {
		t.Fatalf("grid rows %d != %d", len(g.Cells), len(want.Bandwidths))
	}
	for i := range want.Bandwidths {
		for j := range want.Proportionalities {
			if g.Cells[i][j].Savings != want.Cell(i, j).Savings {
				t.Errorf("cell (%d,%d) savings %v != core %v",
					i, j, g.Cells[i][j].Savings, want.Cell(i, j).Savings)
			}
		}
	}
}

// TestCostMatchesSection32 pins the engine's §3.2 analysis to the model's.
func TestCostMatchesSection32(t *testing.T) {
	want, err := core.Section32(0.50)
	if err != nil {
		t.Fatal(err)
	}
	res := do(t, New(Options{}), Request{Op: OpCost})
	c := res.Cost
	if c == nil {
		t.Fatal("no cost result")
	}
	if c.SavedPower.Value != float64(want.SavedPower) {
		t.Errorf("saved power %v != core %v", c.SavedPower.Value, float64(want.SavedPower))
	}
	if c.ElectricityPerYear != want.ElectricityPerYear {
		t.Errorf("electricity %v != core %v", c.ElectricityPerYear, want.ElectricityPerYear)
	}
	if c.CoolingPerYear != want.CoolingPerYear {
		t.Errorf("cooling %v != core %v", c.CoolingPerYear, want.CoolingPerYear)
	}
}

func TestScenario(t *testing.T) {
	res := do(t, New(Options{}), Request{Op: OpScenario, Scenario: "gating"})
	if res.Table == nil {
		t.Fatal("no table")
	}
	if !strings.Contains(res.Table.Title, "§4.1") {
		t.Errorf("unexpected title %q", res.Table.Title)
	}
	if len(res.Table.Rows) == 0 || len(res.Table.Notes) == 0 {
		t.Errorf("table missing rows or notes: %+v", res.Table)
	}
	names := ScenarioNames()
	if len(names) != len(scenarios) {
		t.Errorf("ScenarioNames() = %v", names)
	}
}

// TestCacheHit checks that a repeated identical request is served from the
// cache and increments the hit counter.
func TestCacheHit(t *testing.T) {
	e := New(Options{})
	req := Request{Op: OpWhatIf}
	if _, cached, err := e.Do(context.Background(), req); err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	res, cached, err := e.Do(context.Background(), req)
	if err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if res == nil {
		t.Fatal("nil cached result")
	}
	if e.hits.Value() != 1 || e.misses.Value() != 1 || e.computations.Value() != 1 {
		t.Errorf("hits/misses/computations = %d/%d/%d, want 1/1/1",
			e.hits.Value(), e.misses.Value(), e.computations.Value())
	}
}

// TestSingleflightCollapse launches N concurrent identical requests on a
// fresh engine and checks that exactly one computation ran.
func TestSingleflightCollapse(t *testing.T) {
	e := New(Options{})
	const n = 16
	req := Request{Op: OpTable3}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, errs[i] = e.Do(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if e.computations.Value() != 1 {
		t.Errorf("computations = %d, want 1 (singleflight should collapse identical queries)", e.computations.Value())
	}
	if e.hits.Value()+e.misses.Value() != n {
		t.Errorf("hits %d + misses %d != %d requests", e.hits.Value(), e.misses.Value(), n)
	}
}

// TestLateMissAnsweredFromCache replays the interleaving a concurrent
// caller can hit: its lookup missed before the first flight cached the
// key, and its flight starts after that flight ended. The cache answers
// it; nothing is computed twice.
func TestLateMissAnsweredFromCache(t *testing.T) {
	e := New(Options{})
	req := Request{Op: OpTable3}
	want := do(t, e, req)
	norm, err := req.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	res, _, err := e.miss(context.Background(), norm.Key(), norm)
	if err != nil {
		t.Fatalf("miss: %v", err)
	}
	if res != want {
		t.Error("late miss did not return the cached result")
	}
	if n := e.computations.Value(); n != 1 {
		t.Errorf("computations = %d, want 1 (the late miss recomputed)", n)
	}
}

// TestLRUEvictionBound checks that the cache population never exceeds its
// configured capacity.
func TestLRUEvictionBound(t *testing.T) {
	e := New(Options{CacheSize: 4, CacheShards: 1})
	for i := 0; i < 10; i++ {
		do(t, e, Request{Op: OpWhatIf, GPUs: 1024 + 128*i})
	}
	if e.cache.Len() > 4 {
		t.Errorf("cache entries %d exceed capacity 4", e.cache.Len())
	}
	if e.cache.Evictions() < 6 {
		t.Errorf("evictions = %d, want >= 6", e.cache.Evictions())
	}
	if e.computations.Value() != 10 {
		t.Errorf("computations = %d, want 10", e.computations.Value())
	}
}

// A request whose context is already done fails before the cache and
// counts like any other abandoned request: one error, plus one canceled or
// one deadline according to why the context ended.
func TestContextCanceled(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Do(ctx, Request{Op: OpWhatIf}); !errors.Is(err, context.Canceled) {
		t.Errorf("Do with canceled context = %v, want Canceled", err)
	}
	if e.errors.Value() != 1 || e.canceled.Value() != 1 || e.deadlines.Value() != 0 {
		t.Errorf("errors/canceled/deadlines = %d/%d/%d, want 1/1/0", e.errors.Value(), e.canceled.Value(), e.deadlines.Value())
	}
}

func TestContextDeadlineExpired(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := e.Do(ctx, Request{Op: OpWhatIf}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Do with expired deadline = %v, want DeadlineExceeded", err)
	}
	if e.errors.Value() != 1 || e.deadlines.Value() != 1 || e.canceled.Value() != 0 {
		t.Errorf("errors/deadlines/canceled = %d/%d/%d, want 1/1/0", e.errors.Value(), e.deadlines.Value(), e.canceled.Value())
	}
}

func TestDoInvalidRequest(t *testing.T) {
	e := New(Options{})
	if _, _, err := e.Do(context.Background(), Request{Op: "bogus"}); err == nil {
		t.Error("expected error for unknown op")
	}
	if e.errors.Value() != 1 {
		t.Errorf("errors = %d, want 1", e.errors.Value())
	}
}

// TestStress hammers one small engine from many goroutines over a working
// set larger than the cache, so the race detector sees concurrent hits,
// misses, singleflight sharing, and evictions on every shard.
func TestStress(t *testing.T) {
	e := New(Options{CacheSize: 8, CacheShards: 2, Workers: 4})
	const (
		goroutines = 8
		iters      = 50
		keys       = 16
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := Request{Op: OpWhatIf, GPUs: 512 * ((g+i)%keys + 1)}
				if _, _, err := e.Do(context.Background(), req); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.hits.Value()+e.misses.Value() != goroutines*iters {
		t.Errorf("hits %d + misses %d != %d requests", e.hits.Value(), e.misses.Value(), goroutines*iters)
	}
	if e.cache.Len() > 8 {
		t.Errorf("cache entries %d exceed capacity 8", e.cache.Len())
	}
	if e.inFlight.Load() != 0 {
		t.Errorf("in-flight = %d after quiescence", e.inFlight.Load())
	}
}
