package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/obs"
)

// newJobsTestServer builds a server with durable jobs over a temp dir,
// the engine, jobs, and HTTP layers sharing one registry and, like
// cmd/serve's main, one failpoint plan (nil: disarmed).
func newJobsTestServer(t *testing.T, plan *chaos.Plan) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Registry: reg})
	jm, err := jobs.Open(jobs.Options{Dir: t.TempDir(), Exec: eng, Registry: reg, Chaos: plan})
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	s := newServer(eng, jm, time.Minute, obs.Nop(), reg)
	s.chaos = plan
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		jm.Close(ctx)
	})
	return srv
}

// postJob submits a job body and decodes the snapshot.
func postJob(t *testing.T, url string, body string) (jobs.Snapshot, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var snap jobs.Snapshot
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode snapshot: %v", err)
		}
	}
	return snap, resp.StatusCode
}

func TestJobsAPISubmitPollAndList(t *testing.T) {
	srv := newJobsTestServer(t, nil)

	snap, status := postJob(t, srv.URL, `{"op":"sweep","steps":4}`)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", status)
	}
	if snap.ID == "" || snap.Rows != 5 {
		t.Fatalf("snapshot = %+v, want an id and 5 rows", snap)
	}

	// Idempotent resubmission: same canonical key, same job, 200 not 202.
	again, status := postJob(t, srv.URL, `{"op":"sweep","steps":4,"bw":"400G"}`)
	if status != http.StatusOK {
		t.Errorf("resubmit status = %d, want 200", status)
	}
	if again.ID != snap.ID {
		t.Errorf("resubmit job id %s != original %s", again.ID, snap.ID)
	}

	// Poll until done; the terminal snapshot carries the full result.
	var final jobs.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/v1/jobs/"+snap.ID, &final)
		if final.State == jobs.StateDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("job never finished: %+v", final)
	}
	if final.Result == nil || len(final.Result.Sweep) != 5 {
		t.Fatalf("finished job result = %+v, want a 5-point sweep", final.Result)
	}
	if final.RowsDone != 5 || len(final.Partial) != 5 {
		t.Errorf("rows done %d, partial %d, want 5/5", final.RowsDone, len(final.Partial))
	}

	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Errorf("job list = %+v, want the one job", list.Jobs)
	}
	if list.Jobs[0].Result != nil {
		t.Error("list snapshots must not carry full results")
	}

	// The finished job primed the engine cache: the synchronous endpoint
	// answers the same request with a hit.
	resp, err := http.Get(srv.URL + "/v1/sweep?steps=4")
	if err != nil {
		t.Fatalf("GET /v1/sweep: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("synchronous sweep after job: X-Cache = %q, want HIT", got)
	}
}

func TestJobsAPIHealthzDepthAndMetrics(t *testing.T) {
	srv := newJobsTestServer(t, nil)
	if _, status := postJob(t, srv.URL, `{"op":"sweep","steps":3}`); status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	var health struct {
		Status        string      `json:"status"`
		Draining      bool        `json:"draining"`
		UptimeSeconds float64     `json:"uptime_seconds"`
		Jobs          *jobs.Depth `json:"jobs"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/healthz", &health)
		if health.Jobs != nil && health.Jobs.Done == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if health.Jobs == nil || health.Jobs.Done != 1 {
		t.Fatalf("healthz jobs depth = %+v, want 1 done", health.Jobs)
	}
	if health.Draining {
		t.Error("healthz reports draining on a live server")
	}
	if health.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", health.UptimeSeconds)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{
		"netpowerprop_jobs_submitted_total 1",
		"netpowerprop_jobs_completed_total 1",
		`netpowerprop_jobs_depth{state="done"} 1`,
		"netpowerprop_engine_rows_executed_total 4",
		"# TYPE netpowerprop_jobs_row_duration_seconds histogram",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("/metrics with jobs enabled is not valid exposition: %v", err)
	}
}

func TestJobsAPICancelAndUnknown(t *testing.T) {
	srv := newJobsTestServer(t, nil)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/no-such-job", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job status = %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/v1/jobs/no-such-job"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job status = %d, want 404", resp.StatusCode)
		}
	}
}

func TestJobsAPIDisabledWithoutJobdir(t *testing.T) {
	s, _ := newWiredServer(engine.Options{}, time.Minute)
	srv := httptest.NewServer(s)
	defer srv.Close()
	_, status := postJob(t, srv.URL, `{"op":"sweep"}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("submit without -jobdir status = %d, want 503", status)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("list without -jobdir status = %d, want 503", resp.StatusCode)
	}
}
