package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryRenderIsValidExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	c.Inc()
	c.Inc()
	c.Inc()
	r.Counter("test_requests_errors_total", "Failed requests.", "route", "/v1/whatif").Inc()
	r.GaugeFunc("test_inflight", "Computations running now.", func() float64 { return 2 })
	r.CounterFunc("test_compute_seconds_total", "Cumulative compute time.", func() float64 { return 1.5 })
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}, "op", "sweep")
	h.ObserveDuration(50 * time.Millisecond)
	h.ObserveDuration(3 * time.Second)
	// A label value with every character class that needs escaping.
	r.Counter("test_weird_total", "Weird \\ label\nvalues.", "what", "a \"quoted\\thing\"\nline").Inc()

	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("rendered output fails validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n# TYPE test_requests_total counter\ntest_requests_total 3\n",
		`test_requests_errors_total{route="/v1/whatif"} 1`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{op="sweep",le="0.01"} 0`,
		`test_latency_seconds_bucket{op="sweep",le="0.1"} 1`,
		`test_latency_seconds_bucket{op="sweep",le="+Inf"} 2`,
		`test_latency_seconds_sum{op="sweep"} 3.05`,
		`test_latency_seconds_count{op="sweep"} 2`,
		"test_inflight 2",
		"test_compute_seconds_total 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "test_compute_seconds_total") > strings.Index(out, "test_requests_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegistrySameFamilyManyLabels(t *testing.T) {
	r := NewRegistry()
	for _, op := range []string{"whatif", "sweep", "table3"} {
		r.Counter("test_ops_total", "Per-op count.", "op", op).Inc()
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "# TYPE test_ops_total"); got != 1 {
		t.Errorf("family announced %d times, want once:\n%s", got, out)
	}
	if got := strings.Count(out, "test_ops_total{op="); got != 3 {
		t.Errorf("got %d children, want 3:\n%s", got, out)
	}
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Errorf("multi-child family invalid: %v", err)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	cases := map[string]func(r *Registry){
		"invalid metric name": func(r *Registry) { r.Counter("9bad", "h") },
		"invalid label name":  func(r *Registry) { r.Counter("ok_total", "h", "9bad", "v") },
		"odd label list":      func(r *Registry) { r.Counter("ok_total", "h", "key") },
		"type conflict": func(r *Registry) {
			r.Counter("twice", "h")
			r.GaugeFunc("twice", "h", func() float64 { return 0 })
		},
		"duplicate series": func(r *Registry) {
			r.Counter("dup_total", "h", "a", "b")
			r.Counter("dup_total", "h", "a", "b")
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(NewRegistry())
		}()
	}
}

// A nil registry hands out handles that count but are never rendered,
// drops render-time functions without calling them, and renders empty.
func TestNilRegistryHandlesCount(t *testing.T) {
	var r *Registry
	c := r.Counter("test_total", "h", "k", "v")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("nil-registry counter = %d, want 5", got)
	}
	h := r.Histogram("test_seconds", "h", []float64{0.1, 1})
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Sum(); got != 0.25 {
		t.Errorf("nil-registry histogram sum = %v, want 0.25", got)
	}
	called := false
	fn := func() float64 { called = true; return 1 }
	r.CounterFunc("test_fn_total", "h", fn)
	r.GaugeFunc("test_gauge", "h", fn)
	if called {
		t.Error("nil registry called a render-time function")
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry rendered %q, %v; want nothing", b.String(), err)
	}
}

// Counting is on every request path, so it must not allocate.
func TestCounterIncAddAllocateNothing(t *testing.T) {
	c := NewRegistry().Counter("test_total", "h")
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Errorf("Inc+Add allocated %v times per run, want 0", n)
	}
}
