package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netpowerprop/internal/engine"
)

// firstCalls renders a workload's first 64 calls as text, one line per
// call: the byte form the determinism test compares.
func firstCalls(w *workload, seed uint64) []byte {
	g := newGen(seed, false)
	var b bytes.Buffer
	for i := 0; i < 64; i++ {
		c := w.next(g, i)
		fmt.Fprintf(&b, "%s %s %s\n", c.method, c.path, c.body)
	}
	return b.Bytes()
}

func TestCallsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := firstCalls(w, 7), firstCalls(w, 7), firstCalls(w, 8)
		if len(a) == 0 {
			t.Fatalf("%s: no calls", w.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different call sequences", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same call sequence", w.name)
		}
	}
}

func TestWarmUpKeysAreDisjointFromMeasuredOnes(t *testing.T) {
	for _, w := range workloads {
		measured, warm := newGen(3, false), newGen(3, true)
		keys := make(map[string]bool)
		for i := 0; i < 2000; i++ {
			for _, k := range callKeys(t, w.next(measured, i)) {
				keys[k] = true
			}
		}
		for i := 0; i < 2000; i++ {
			for _, k := range callKeys(t, w.next(warm, i)) {
				if keys[k] {
					t.Fatalf("%s: warm-up call %d repeats a measured key %s", w.name, i, k)
				}
			}
		}
	}
}

func callKeys(t *testing.T, c call) []string {
	reqs := c.batch
	if c.kind != "batch" {
		reqs = []engine.Request{c.req}
	}
	var keys []string
	for _, r := range reqs {
		n, err := r.Normalize()
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		keys = append(keys, n.Key())
	}
	return keys
}

func TestHighestQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {125000, 0.999},
	} {
		if got := highestQuantile(tc.n); got != tc.want {
			t.Errorf("highestQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
}

func TestParseProcFiles(t *testing.T) {
	// Fields 14 and 15 of a stat line whose command holds spaces and a
	// parenthesis.
	stat := "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 9 0 88 123 45 " +
		"18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	if got, err := parseStatCPU(stat); err != nil || got != 200 {
		t.Errorf("parseStatCPU = %d, %v; want 200", got, err)
	}
	if _, err := parseStatCPU("4242 (serve) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tserve\nVmPeak:\t  812340 kB\nVmHWM:\t   61472 kB\nVmRSS:\t   41208 kB\nThreads:\t9\n"
	if got, err := parseStatusKB(status, "VmHWM"); err != nil || got != 61472 {
		t.Errorf("VmHWM = %d, %v; want 61472", got, err)
	}
	if got, err := parseStatusKB(status, "VmRSS"); err != nil || got != 41208 {
		t.Errorf("VmRSS = %d, %v; want 41208", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing field")
	}
}

func TestMetricsDelta(t *testing.T) {
	// Captured from cmd/serve around three /v1/whatif calls (one a cache
	// hit), one /v1/table3 call, one /healthz and one /metrics.
	var scrapes [2]map[string]float64
	for i, name := range []string{"testdata/metrics-before.txt", "testdata/metrics-after.txt"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if scrapes[i], err = parseExposition(string(b)); err != nil {
			t.Fatal(err)
		}
	}
	d := delta(scrapes[0], scrapes[1])
	for _, tc := range []struct {
		name string
		keep func(string) bool
		want float64
	}{
		{"netpowerprop_http_request_duration_seconds_count", apiRoute, 4},
		{"netpowerprop_http_request_duration_seconds_count", nil, 6},
		{"netpowerprop_http_request_duration_seconds_sum", apiRoute, 0.001036081 - 0.000617221 + 0.000339462},
		{"netpowerprop_engine_cache_hits_total", nil, 1},
		{"netpowerprop_engine_cache_misses_total", nil, 3},
		{"netpowerprop_engine_compute_duration_seconds_count", nil, 3},
	} {
		if got := sumSeries(d, tc.name, tc.keep); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("delta of %s = %v, want %v", tc.name, got, tc.want)
		}
	}
	whatif := `netpowerprop_http_request_duration_seconds_bucket{route="/v1/whatif",le="+Inf"}`
	if got := d[whatif]; got != 3 {
		t.Errorf("delta of %s = %v, want 3", whatif, got)
	}
	if _, err := parseExposition("metric_without_value\n"); err == nil {
		t.Error("parseExposition accepted a line without a value")
	}
}

// TestClosedLoopRecordsEveryCallOnce runs the closed loop against a test
// server: the clients together must send calls 0..n-1 exactly once each,
// hold at most maxConns requests in flight, keep only the answers keep
// accepts, and stop sending once the window has passed.
func TestClosedLoopRecordsEveryCallOnce(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		w.Write([]byte(`{"result": {"op": "whatif"}}`))
	}))
	defer srv.Close()

	const window = 200 * time.Millisecond
	next := func(int) call {
		return call{kind: "get", method: "GET", path: "/", req: engine.Request{Op: engine.OpWhatIf}, rows: 1}
	}
	start := time.Now()
	outs := runClosed(strings.TrimPrefix(srv.URL, "http://"), start, window, next, func(i int) bool { return i%4 == 0 })
	if err := firstErr(outs); err != nil {
		t.Fatal(err)
	}
	if len(outs) < 20 {
		t.Fatalf("only %d calls in a %v window", len(outs), window)
	}
	seen := make([]bool, len(outs))
	for _, o := range outs {
		if o.index < 0 || o.index >= len(outs) || seen[o.index] {
			t.Fatalf("call index %d repeated or out of 0..%d", o.index, len(outs)-1)
		}
		seen[o.index] = true
		if kept := o.got != nil; kept != (o.index%4 == 0) {
			t.Errorf("call %d: answer kept %v, want %v", o.index, kept, o.index%4 == 0)
		}
		if o.sent > window+50*time.Millisecond || o.latency() < time.Millisecond {
			t.Errorf("call %d sent at %v with latency %v", o.index, o.sent, o.latency())
		}
	}
	if p := peak.Load(); p > maxConns {
		t.Errorf("%d requests in flight at once, want at most %d", p, maxConns)
	}
}

// TestReplayProbesMatchEngine runs the layer probe through the traced
// replay: its scenario probes must reproduce the engine's cells, and
// every per-layer metric the replay owns must get a value.
func TestReplayProbesMatchEngine(t *testing.T) {
	calls := layerProbe(newGen(5, false))
	rec := newRecorder(0, len(calls))
	if _, err := replayPass(calls, rec, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	vals := rec.values()
	for _, m := range spanMetrics {
		if _, ok := vals[m.metric]; !ok {
			t.Errorf("replay gave no value for %s", m.metric)
		}
	}
	if got := vals["engine.do_us_mean.hit"]; !(got > 0) {
		t.Errorf("engine.do_us_mean.hit = %v, want a positive time", got)
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the code to
// the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	for _, tc := range []struct {
		json []def
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("BENCHMARK.json lists %d metrics where the code has %d", len(tc.json), len(tc.code))
			continue
		}
		for i, m := range tc.code {
			if tc.json[i] != (def{m.name, m.unit}) {
				t.Errorf("metric %d: BENCHMARK.json %v, code %v", i, tc.json[i], m)
			}
		}
	}
}
