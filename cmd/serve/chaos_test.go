package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

// mustPlan parses a failpoint plan for one test.
func mustPlan(t *testing.T, spec string) *chaos.Plan {
	t.Helper()
	p, err := chaos.Parse(spec)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	return p
}

// A journal fsync failure must flip the whole node into jobs-degraded
// mode: POST /v1/jobs answers 503 (first failure and every submit
// after), /healthz reports degraded with the journal reason, and the
// synchronous compute endpoints keep serving untouched.
func TestJournalFaultDegradesJobsButServesCompute(t *testing.T) {
	t.Parallel()
	srv := newJobsTestServer(t, mustPlan(t, "seed=3;site=jobs.journal.fsync kind=fsyncfail count=1"))

	if _, status := postJob(t, srv.URL, `{"op":"sweep","steps":4}`); status != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing fsync: status = %d, want 503", status)
	}
	// Degradation is sticky — the fault fired once (count=1) but
	// durability is unknowable from here on, so later submits still 503.
	if _, status := postJob(t, srv.URL, `{"op":"sweep","steps":8}`); status != http.StatusServiceUnavailable {
		t.Fatalf("submit after journal fault: status = %d, want 503 (sticky)", status)
	}

	var h struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "degraded" || !strings.Contains(h.Reason, "journal") {
		t.Fatalf("healthz = %+v, want degraded with a journal reason", h)
	}

	// Compute-only traffic is unaffected: the node sheds durable work,
	// not its serving capacity.
	var res map[string]any
	if resp := getJSON(t, srv.URL+"/v1/whatif?gpus=2048", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif during journal degradation: status = %d, want 200", resp.StatusCode)
	}
}

// A response-write fault (modeling a dead client socket) must fail only
// the one response it hits; the server keeps serving afterwards.
func TestResponseWriteFaultIsContainedToOneRequest(t *testing.T) {
	t.Parallel()
	plan := mustPlan(t, "seed=5;site=serve.response.write kind=error count=1")
	eng := engine.New(engine.Options{})
	s := newServer(eng, nil, time.Minute, obs.Nop(), nil)
	s.chaos = plan
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err == nil {
		// The handler's first Write failed, so whatever arrived must not
		// decode as a healthz body.
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var h struct {
			Status string `json:"status"`
		}
		if json.Unmarshal(body, &h) == nil && h.Status != "" {
			t.Fatalf("response survived an injected write fault: %s", body)
		}
	}
	if got := plan.Injections(); got != 1 {
		t.Fatalf("injections = %d, want 1", got)
	}

	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz after contained fault = %q, want ok", h.Status)
	}
}
