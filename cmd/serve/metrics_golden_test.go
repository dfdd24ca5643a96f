package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/admit"
	"netpowerprop/internal/chaos"
	"netpowerprop/internal/cluster"
	"netpowerprop/internal/cosim"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/obs"
)

// stubProvider answers every co-sim call with zero, without a subprocess.
type stubProvider struct{}

func (stubProvider) Call(*cosim.Request) (float64, error) { return 0, nil }
func (stubProvider) Close() error                         { return nil }

// metricsFamilies renders the registry and keeps only its shape: every
// # HELP and # TYPE line, and each sample's series name and label set
// with the value dropped.
func metricsFamilies(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	var out strings.Builder
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.String()
}

// metric renders reg and returns the value of one series, named as it
// renders (family name and label set, e.g. `x_total{k="v"}`).
func metric(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not rendered", series)
	return 0
}

// TestMetricsFamiliesGolden pins the /metrics surface of a fully wired
// server: engine, jobs, admission, a cluster node with peers, a co-sim
// binding, the (disarmed) chaos plan and the HTTP layer all register on
// one registry, and every family's HELP and TYPE, and every child's name
// and labels, must match the golden file.
func TestMetricsFamiliesGolden(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Workers: 2, Registry: reg})
	jm, err := jobs.Open(jobs.Options{Dir: t.TempDir(), Exec: eng, Registry: reg})
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	t.Cleanup(func() { jm.Close(context.Background()) })
	admit.New(admit.Options{Capacity: eng.Capacity(), Pending: eng.Pending, Registry: reg})
	cluster.New(cluster.Options{
		Self:     "http://127.0.0.1:1",
		Peers:    []string{"http://127.0.0.1:2", "http://127.0.0.1:3"},
		Registry: reg,
	})
	cosim.Bind(stubProvider{}, reg)
	(*chaos.Plan)(nil).Instrument(reg)
	s := newServer(eng, jm, time.Minute, obs.Nop(), reg)
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))

	got := metricsFamilies(t, reg)
	path := filepath.Join("testdata", "metrics_families.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics families differ from %s; got:\n%s", path, got)
	}
}
