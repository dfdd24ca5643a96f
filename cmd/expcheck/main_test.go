package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
