package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: netpowerprop
BenchmarkFig2-8          	  600000	      1801 ns/op	        31.60 net-efficiency-%	        16.58 net-share-%	    2112 B/op	      20 allocs/op
BenchmarkFabricSim-8     	    5000	    210000 ns/op	  216313 B/op	    1132 allocs/op
BenchmarkSchedule-8      	60000000	        19.55 ns/op	       0 B/op	       0 allocs/op
BenchmarkUnbaselined-8   	    1000	   1000000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	netpowerprop	4.2s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	fab := got["BenchmarkFabricSim"]
	if fab.NsPerOp != 210000 || fab.BytesPerOp != 216313 || fab.AllocsPerOp != 1132 {
		t.Errorf("FabricSim metrics = %+v", fab)
	}
	// ReportMetric extras must not clobber the real units.
	fig2 := got["BenchmarkFig2"]
	if fig2.NsPerOp != 1801 || fig2.AllocsPerOp != 20 {
		t.Errorf("Fig2 metrics = %+v", fig2)
	}
	// Fractional ns/op parses.
	if got["BenchmarkSchedule"].NsPerOp != 19.55 {
		t.Errorf("Schedule ns/op = %v", got["BenchmarkSchedule"].NsPerOp)
	}
}

// TestParseBenchRepeatedTakesMedian: a repeated benchmark is judged by
// its median sample by ns/op, so one outlier sample moves nothing.
func TestParseBenchRepeatedTakesMedian(t *testing.T) {
	got, err := parseBench(strings.NewReader(
		"BenchmarkX-8 10 500 ns/op 64 B/op 2 allocs/op\n" +
			"BenchmarkX-8 10 300 ns/op 64 B/op 2 allocs/op\n" +
			"BenchmarkX-8 10 90000 ns/op 9000 B/op 40 allocs/op\n" +
			"BenchmarkX-8 10 400 ns/op 64 B/op 2 allocs/op\n" +
			"BenchmarkX-8 10 450 ns/op 64 B/op 2 allocs/op\n" +
			"BenchmarkY-8 10 100 ns/op 0 B/op 0 allocs/op\n" +
			"BenchmarkY-8 10 300 ns/op 0 B/op 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (metrics{NsPerOp: 450, BytesPerOp: 64, AllocsPerOp: 2}); got["BenchmarkX"] != want {
		t.Errorf("BenchmarkX = %+v, want the median sample %+v", got["BenchmarkX"], want)
	}
	if got["BenchmarkY"].NsPerOp != 300 {
		t.Errorf("BenchmarkY kept %v ns/op, want the upper of the middle two, 300", got["BenchmarkY"].NsPerOp)
	}
}

func TestCheck(t *testing.T) {
	baseline := map[string]metrics{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4000},
		"BenchmarkB": {NsPerOp: 500, AllocsPerOp: 0},
	}
	for _, tc := range []struct {
		name       string
		observed   map[string]metrics
		checked    int
		violations int
	}{
		{"within tolerance", map[string]metrics{
			"BenchmarkA": {NsPerOp: 4000, AllocsPerOp: 12, BytesPerOp: 5512},
			"BenchmarkB": {NsPerOp: 600, AllocsPerOp: 1, BytesPerOp: 512},
		}, 2, 0},
		{"ns regression", map[string]metrics{
			"BenchmarkA": {NsPerOp: 5001, AllocsPerOp: 10},
		}, 1, 1},
		{"allocs regression", map[string]metrics{
			"BenchmarkB": {NsPerOp: 500, AllocsPerOp: 3},
		}, 1, 1},
		// 4000 B x1.25 + 512 = 5512: same allocation count, bigger pieces.
		{"bytes regression", map[string]metrics{
			"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 5513},
		}, 1, 1},
		{"bytes regression from zero", map[string]metrics{
			"BenchmarkB": {NsPerOp: 500, AllocsPerOp: 0, BytesPerOp: 513},
		}, 1, 1},
		{"all regress", map[string]metrics{
			"BenchmarkA": {NsPerOp: 99999, AllocsPerOp: 99, BytesPerOp: 1e6},
		}, 1, 3},
		{"unknown benchmarks skipped", map[string]metrics{
			"BenchmarkZ": {NsPerOp: 1e9, AllocsPerOp: 1e6},
		}, 0, 0},
	} {
		checked, violations := check(baseline, tc.observed, 5)
		if checked != tc.checked || len(violations) != tc.violations {
			t.Errorf("%s: checked=%d violations=%v, want %d/%d",
				tc.name, checked, violations, tc.checked, tc.violations)
		}
	}
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sampleBaseline = `{
  "benchmarks": {
    "BenchmarkFabricSim": {
      "current": {"ns_per_op": 206334, "bytes_per_op": 216313, "allocs_per_op": 1132},
      "seed": {"ns_per_op": 577161, "bytes_per_op": 385824, "allocs_per_op": 3824}
    },
    "BenchmarkSchedule": {
      "current": {"ns_per_op": 19.02, "bytes_per_op": 0, "allocs_per_op": 0}
    }
  }
}`

func TestRunPasses(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sampleBench), &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "benchguard OK: 2 benchmarks") {
		t.Errorf("unexpected output: %s", sb.String())
	}
}

func TestRunPrintsBaselineHost(t *testing.T) {
	withHost := strings.Replace(sampleBaseline, "{\n  \"benchmarks\"",
		"{\n  \"host\": {\"nproc\": 2, \"cpu\": \"Intel(R) Xeon(R) Processor\", \"go\": \"go1.24.0\"},\n  \"benchmarks\"", 1)
	if withHost == sampleBaseline {
		t.Fatal("sample baseline has no benchmarks block to put the host before")
	}
	var sb strings.Builder
	if err := run([]string{"-baseline", writeBaseline(t, withHost)}, strings.NewReader(sampleBench), &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if !strings.HasPrefix(sb.String(), "baseline host: 2 CPUs, Intel(R) Xeon(R) Processor, go1.24.0\n") {
		t.Errorf("output does not open with the baseline host: %s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-baseline", writeBaseline(t, sampleBaseline)}, strings.NewReader(sampleBench), &sb); err != nil {
		t.Fatalf("run without a host block: %v\n%s", err, sb.String())
	}
	if strings.Contains(sb.String(), "baseline host") {
		t.Errorf("printed a host for a baseline without one: %s", sb.String())
	}
}

func TestRunFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	slow := "BenchmarkFabricSim-8 10 99999999 ns/op 216313 B/op 1132 allocs/op\n"
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(slow), &sb)
	if err == nil {
		t.Fatalf("regressed input accepted:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION: BenchmarkFabricSim") {
		t.Errorf("missing violation line: %s", sb.String())
	}
}

// A benchmark whose allocation count holds but whose bytes grow — a dense
// arena coming back — must fail the guard.
func TestRunFailsOnBytesRegression(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	fat := "BenchmarkFabricSim-8 10 206334 ns/op 1730504 B/op 1132 allocs/op\n"
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(fat), &sb)
	if err == nil {
		t.Fatalf("byte-regressed input accepted:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION: BenchmarkFabricSim: 1730504 B/op exceeds baseline 216313 B/op") {
		t.Errorf("missing B/op violation line: %s", sb.String())
	}
	if strings.Contains(sb.String(), "allocs/op exceeds") {
		t.Errorf("unchanged allocation count flagged: %s", sb.String())
	}
}

func TestRunFailsOnNoOverlap(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	err := run([]string{"-baseline", base},
		strings.NewReader("BenchmarkNovel-8 10 5 ns/op 0 B/op 0 allocs/op\n"), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no observed benchmark") {
		t.Errorf("no-overlap input: err = %v, want overlap error", err)
	}
}

func TestToleranceEnvOverride(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	// 210000 ns/op observed vs 206334 baseline: passes at x5, fails at x1.001.
	t.Setenv("BENCH_TOLERANCE", "1.001")
	var sb strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(sampleBench), &sb)
	if err == nil {
		t.Errorf("BENCH_TOLERANCE=1.001 did not tighten the guard:\n%s", sb.String())
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	base := writeBaseline(t, sampleBaseline)
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"missing baseline", []string{"-baseline", "/nonexistent.json"}, sampleBench},
		{"bad baseline json", []string{"-baseline", writeBaseline(t, "{")}, sampleBench},
		{"empty baseline", []string{"-baseline", writeBaseline(t, `{"benchmarks":{}}`)}, sampleBench},
		{"zero tolerance", []string{"-baseline", base, "-tolerance", "0"}, sampleBench},
		{"garbage value", []string{"-baseline", base}, "BenchmarkFabricSim-8 10 oops ns/op\n"},
	} {
		if err := run(tc.args, strings.NewReader(tc.stdin), &strings.Builder{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
