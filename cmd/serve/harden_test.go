package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

// newWiredServer builds a server whose engine shares its registry, with
// logs discarded — for tests that need custom engine options.
func newWiredServer(opts engine.Options, timeout time.Duration) (*server, *engine.Engine) {
	reg := obs.NewRegistry()
	opts.Registry = reg
	eng := engine.New(opts)
	return newServer(eng, nil, timeout, obs.Nop(), reg), eng
}

// An injected panic in a scenario computation must come back as a 500 with
// a JSON error body, bump the panic metric, and leave the server serving —
// the process survives its own worst request.
func TestPanicReturns500AndServerSurvives(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/scenarios/chaos?panic=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q, want JSON", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !strings.Contains(body.Error, "panicked") {
		t.Errorf("error body %q does not mention the panic", body.Error)
	}
	// The panic shows on /metrics and the process keeps answering.
	metrics := getText(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, "netpowerprop_engine_panics_total 1") {
		t.Errorf("metrics missing netpowerprop_engine_panics_total 1:\n%s", metrics)
	}
	ok, err := http.Get(srv.URL + "/v1/scenarios/chaos")
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("follow-up status = %d, want 200", ok.StatusCode)
	}
}

// A panic in the HTTP layer itself (not the engine) is also contained.
func TestHandlerPanicContained(t *testing.T) {
	s, _ := newWiredServer(engine.Options{}, time.Minute)
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler boom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if metrics := getText(t, srv.URL+"/metrics"); !strings.Contains(metrics, "netpowerprop_http_panics_total 1") {
		t.Errorf("metrics missing netpowerprop_http_panics_total 1:\n%s", metrics)
	}
}

// A non-finite query number (strconv.ParseFloat accepts NaN and Inf) is a
// bad request: 400 with a JSON error, and no panic anywhere on the way.
func TestNonFiniteQueryReturns400(t *testing.T) {
	srv := newTestServer(t)
	for _, path := range []string{
		"/v1/whatif?ratio=NaN",
		"/v1/sweep?ratio=nan",
		"/v1/whatif?netprop=NaN",
		"/v1/cost?price=Inf",
		"/v1/fig3?props=0.5,NaN",
		"/v1/scenarios/topologies?level=NaN",
		"/v1/scenarios/faults?mttr=%2BInf",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(body.Error, "not a finite number") {
			t.Errorf("GET %s: status %d, error %q (decode %v); want 400 naming the non-finite number", path, resp.StatusCode, body.Error, err)
		}
	}
	metrics := getText(t, srv.URL+"/metrics")
	for _, want := range []string{"netpowerprop_http_panics_total 0", "netpowerprop_engine_panics_total 0"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// A request outlasting its deadline answers 504 and counts on /metrics.
func TestDeadlineReturns504(t *testing.T) {
	s, _ := newWiredServer(engine.Options{}, 30*time.Millisecond)
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/scenarios/chaos?sleep=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	metrics := getText(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, "netpowerprop_engine_deadline_total 1") {
		t.Errorf("metrics missing netpowerprop_engine_deadline_total 1:\n%s", metrics)
	}
	// A deadline is not a cancellation; the canceled counter stays 0.
	if !strings.Contains(metrics, "netpowerprop_engine_canceled_total 0") {
		t.Errorf("metrics missing netpowerprop_engine_canceled_total 0:\n%s", metrics)
	}
}

// When the bounded queue is full, requests shed with 503 + Retry-After.
func TestOverloadReturns503(t *testing.T) {
	// MaxQueue 0 normalizes to 4×workers; fill worker + queue with slow
	// distinct requests, then expect a shed.
	s, eng := newWiredServer(engine.Options{Workers: 1, MaxQueue: 0}, time.Minute)
	srv := httptest.NewServer(s)
	defer srv.Close()
	// Use distinct sleep values for distinct cache keys.
	done := make(chan struct{}, 5)
	for i := 0; i < 5; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			resp, err := http.Get(srv.URL + "/v1/scenarios/chaos?sleep=0.2" + strings.Repeat("0", i) + "1")
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	// Wait for saturation (pending == 5), then one more request must shed.
	deadline := time.After(5 * time.Second)
	for eng.Pending() < 5 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want 5", eng.Pending())
		case <-time.After(time.Millisecond):
		}
	}
	resp, err := http.Get(srv.URL + "/v1/scenarios/chaos?sleep=0.3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// Retry-After is derived from queue depth: a whole number of seconds
	// in [1, 60], not a hardcoded constant.
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
	if metrics := getText(t, srv.URL+"/metrics"); !strings.Contains(metrics, "netpowerprop_engine_shed_total 1") {
		t.Errorf("metrics missing netpowerprop_engine_shed_total 1:\n%s", metrics)
	}
	for i := 0; i < 5; i++ {
		<-done
	}
}

// retryAfterSeconds drains the pending queue at the measured mean compute
// time, using a 0.05 s prior before any computation, and clamps the hint
// to [1, 60] seconds, with a 5 s floor while draining.
func TestRetryAfterSeconds(t *testing.T) {
	s, _ := newWiredServer(engine.Options{Workers: 1}, time.Minute)
	for _, tc := range []struct {
		name     string
		rows     int
		draining bool
		want     int
	}{
		{"prior", 71, false, 4}, // ceil(0.05 × 70 / 1)
		{"floor", 1, false, 1},
		{"ceiling", 10000, false, 60},
		{"draining", 1, true, drainRetryAfter},
		{"draining above floor", 71 * 2, true, 8}, // ceil(0.05 × 141)
	} {
		s.draining.Store(tc.draining)
		if got := s.retryAfterSeconds(tc.rows); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(%d) = %d, want %d", tc.name, tc.rows, got, tc.want)
		}
	}
}

// /healthz reports ok when idle and degraded (with a reason) after a panic.
func TestHealthzDegradedAfterPanic(t *testing.T) {
	srv := newTestServer(t)
	var h struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("idle health = %+v, want ok", h)
	}
	resp, err := http.Get(srv.URL + "/v1/scenarios/chaos?panic=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "degraded" || !strings.Contains(h.Reason, "panic") {
		t.Errorf("health after panic = %+v, want degraded with panic reason", h)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}
