package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

func newTestServer(t *testing.T) *httptest.Server {
	srv, _ := newTestServerWithSink(t)
	return srv
}

// newTestServerWithSink builds a fully wired test server — engine and
// HTTP layer sharing one registry — with logs captured in a sink.
func newTestServerWithSink(t *testing.T) (*httptest.Server, *obs.MemSink) {
	t.Helper()
	var sink obs.MemSink
	logger := obs.New(&sink, obs.LevelDebug)
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Logger: logger.With("component", "engine"), Registry: reg})
	srv := httptest.NewServer(newServer(eng, nil, time.Minute, logger.With("component", "http"), reg))
	t.Cleanup(srv.Close)
	return srv, &sink
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

// table3Response is the slice of the API response the golden test needs.
type table3Response struct {
	Cached bool `json:"cached"`
	Result struct {
		Grid struct {
			Bandwidths []struct {
				Label string `json:"label"`
			} `json:"bandwidths"`
			Proportionalities []float64 `json:"proportionalities"`
			Cells             [][]struct {
				Savings float64 `json:"savings"`
			} `json:"cells"`
		} `json:"grid"`
	} `json:"result"`
}

// TestTable3Golden checks the server's /v1/table3 against the CLI's golden
// snapshot: same bandwidth labels, and savings within half of the golden
// file's one-decimal rounding step.
func TestTable3Golden(t *testing.T) {
	raw, err := os.ReadFile("../powerprop/testdata/table3.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	type goldenRow struct {
		label   string
		savings []float64
	}
	var rows []goldenRow
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n")[3:] {
		f := strings.Fields(line)
		row := goldenRow{label: f[0] + " " + f[1]}
		for _, cell := range f[2:] {
			pct, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatalf("parse golden cell %q: %v", cell, err)
			}
			row.savings = append(row.savings, pct/100)
		}
		rows = append(rows, row)
	}

	srv := newTestServer(t)
	var resp table3Response
	getJSON(t, srv.URL+"/v1/table3", &resp)
	grid := resp.Result.Grid
	if len(grid.Cells) != len(rows) {
		t.Fatalf("grid has %d rows, golden has %d", len(grid.Cells), len(rows))
	}
	const tolerance = 0.00055 // golden rounds to 0.1 percentage points
	for i, row := range rows {
		if grid.Bandwidths[i].Label != row.label {
			t.Errorf("row %d bandwidth %q != golden %q", i, grid.Bandwidths[i].Label, row.label)
		}
		for j, want := range row.savings {
			got := grid.Cells[i][j].Savings
			if math.Abs(got-want) > tolerance {
				t.Errorf("cell (%s, %v): savings %v differs from golden %v by more than %v",
					row.label, grid.Proportionalities[j], got, want, tolerance)
			}
		}
	}
}

// TestCacheHit checks that a repeated identical request is served from the
// cache and that the metrics endpoint reflects the hit.
func TestCacheHit(t *testing.T) {
	srv := newTestServer(t)
	var first, second struct {
		Cached bool `json:"cached"`
	}
	r1 := getJSON(t, srv.URL+"/v1/whatif?gpus=2048", &first)
	if first.Cached || r1.Header.Get("X-Cache") != "MISS" {
		t.Errorf("first request: cached=%v X-Cache=%q", first.Cached, r1.Header.Get("X-Cache"))
	}
	r2 := getJSON(t, srv.URL+"/v1/whatif?gpus=2048", &second)
	if !second.Cached || r2.Header.Get("X-Cache") != "HIT" {
		t.Errorf("second request: cached=%v X-Cache=%q", second.Cached, r2.Header.Get("X-Cache"))
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"netpowerprop_engine_cache_hits_total 1",
		"netpowerprop_engine_cache_misses_total 1",
		"netpowerprop_engine_computations_total 1",
		"# TYPE netpowerprop_engine_compute_duration_seconds histogram",
		`netpowerprop_engine_compute_duration_seconds_count{op="whatif"} 1`,
		`netpowerprop_engine_compute_duration_seconds_sum{op="whatif"} `,
		`netpowerprop_engine_compute_duration_seconds_count{op="table3"} 0`,
		`netpowerprop_engine_compute_duration_seconds_bucket{op="whatif",le="+Inf"} 1`,
		`netpowerprop_http_requests_total{route="/v1/whatif",code="200"} `,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Errorf("/metrics is not valid exposition format: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestScenarioEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var list struct {
		Scenarios []string `json:"scenarios"`
	}
	getJSON(t, srv.URL+"/v1/scenarios", &list)
	if len(list.Scenarios) < 8 {
		t.Errorf("scenario list too short: %v", list.Scenarios)
	}

	var resp struct {
		Result struct {
			Table struct {
				Title string     `json:"title"`
				Rows  [][]string `json:"rows"`
			} `json:"table"`
		} `json:"result"`
	}
	getJSON(t, srv.URL+"/v1/scenarios/gating?ports=32", &resp)
	if !strings.Contains(resp.Result.Table.Title, "32/128 ports") {
		t.Errorf("gating params ignored: %q", resp.Result.Table.Title)
	}
	if len(resp.Result.Table.Rows) == 0 {
		t.Error("gating table has no rows")
	}
}

func TestTopologiesEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var resp struct {
		Result struct {
			Table struct {
				Title string     `json:"title"`
				Rows  [][]string `json:"rows"`
			} `json:"table"`
		} `json:"result"`
	}
	getJSON(t, srv.URL+"/v1/scenarios/topologies?hosts=12&iters=1", &resp)
	if !strings.Contains(resp.Result.Table.Title, "12 hosts") {
		t.Errorf("topologies params ignored: %q", resp.Result.Table.Title)
	}
	if len(resp.Result.Table.Rows) < 5 {
		t.Errorf("topologies table compares %d topologies, want at least 5", len(resp.Result.Table.Rows))
	}
	seen := map[string]bool{}
	for _, row := range resp.Result.Table.Rows {
		seen[row[0]] = true
	}
	for _, name := range []string{"fattree", "dragonfly", "torus3d", "railonly", "ocsleaf"} {
		if !seen[name] {
			t.Errorf("topologies table missing %q: have %v", name, seen)
		}
	}
}

func TestPostWhatIf(t *testing.T) {
	srv := newTestServer(t)
	body := strings.NewReader(`{"op":"whatif","gpus":1024,"bw":"800G"}`)
	resp, err := http.Post(srv.URL+"/v1/whatif", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var out struct {
		Result struct {
			Cluster struct {
				GPUs      int `json:"gpus"`
				Bandwidth struct {
					Label string `json:"label"`
				} `json:"bandwidth"`
			} `json:"cluster"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Cluster.GPUs != 1024 || out.Result.Cluster.Bandwidth.Label != "800 Gbps" {
		t.Errorf("POST body ignored: %+v", out.Result.Cluster)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t)
	for _, url := range []string{
		"/v1/whatif?ratio=2",
		"/v1/whatif?gpus=notanumber",
		"/v1/table3?bw=bogus",
		"/v1/scenarios/bogus",
		"/v1/scenarios/gating?nosuchparam=1",
	} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", url, resp.StatusCode)
		}
	}
	// Unknown JSON fields are rejected.
	resp, err := http.Post(srv.URL+"/v1/whatif", "application/json",
		strings.NewReader(`{"nosuchfield":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST with unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestScenarioParamKindRejected: a scenario parameter of the wrong kind
// answers 400 with an error naming it, over GET and POST alike, instead
// of running a truncated value under a cache key of its own.
func TestScenarioParamKindRejected(t *testing.T) {
	srv := newTestServer(t)
	for _, url := range []string{
		"/v1/scenarios/gating?ports=64.5",
		"/v1/scenarios/gating?l3=0.5",
		"/v1/scenarios/faults?radix=4.7&iters=1.2",
	} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "not") {
			t.Errorf("GET %s: status %d body %s, want 400 with a kind error", url, resp.StatusCode, body)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/scenarios/gating", "application/json",
		strings.NewReader(`{"params":{"ports":64.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST ports=64.5: status %d, want 400", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/whatif", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status %d, want 405", resp.StatusCode)
	}
}
