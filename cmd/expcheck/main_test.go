package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const validExposition = `# HELP x_cache_hits_total Hits.
# TYPE x_cache_hits_total counter
x_cache_hits_total 3
# HELP x_pending Pending.
# TYPE x_pending gauge
x_pending 0
`

// serve answers every request with body as Prometheus text.
func serve(t *testing.T, body string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestRun(t *testing.T) {
	valid := serve(t, validExposition)
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"valid", []string{valid}, ""},
		{"invalid", []string{serve(t, "x_orphan 1\n")}, "invalid exposition"},
		{"required present", []string{"-require", "x_cache_hits_total", "-require", "x_pending", valid}, ""},
		{"required by prefix only", []string{"-require", "x_cache", valid}, `"x_cache" not found`},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && !strings.Contains(out.String(), "expcheck OK"):
			t.Errorf("%s: output %q, want expcheck OK", tc.name, out.String())
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// unhealthyUntil answers 503 to its first n requests and 200 after, and
// counts every request.
func unhealthyUntil(t *testing.T, n int64) (string, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= n {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL, &calls
}

// A -probe URL that answers 503 before 200 is retried until it is ready.
func TestProbeRetriesUntilReady(t *testing.T) {
	probe, calls := unhealthyUntil(t, 2)
	if err := run([]string{"-timeout", "5s", "-probe", probe, serve(t, validExposition)}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("probe requests = %d, want 3 (two 503s, then 200)", got)
	}
}

// A probe that never answers 200 gives up once -timeout has passed.
func TestProbeGivesUpAfterTimeout(t *testing.T) {
	probe, _ := unhealthyUntil(t, 1<<62)
	start := time.Now()
	err := run([]string{"-timeout", "300ms", "-probe", probe, serve(t, validExposition)}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "gave up after deadline: status 503") {
		t.Fatalf("err = %v, want a give-up after status 503", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("gave up after %v, before the 300ms timeout", elapsed)
	}
}
