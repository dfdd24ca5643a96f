// Command benchguard compares `go test -bench` output against the frozen
// numbers in BENCH_netsim.json and exits non-zero when a benchmark has
// regressed past the tolerance. CI pipes a short -benchtime run through it
// so an accidental O(n²) in a hot path fails the build instead of landing
// silently.
//
// Usage:
//
//	go test -run=NONE -benchmem -bench . -benchtime=20x . | benchguard
//	benchguard -baseline BENCH_netsim.json -tolerance 5 bench.out
//
// Only benchmarks present in both the baseline and the observed output are
// checked; zero overlap is itself an error (it means the guard is wired to
// the wrong input). ns/op is compared against baseline*tolerance — the
// default factor of 5 absorbs machine-class and -benchtime noise while
// still catching order-of-magnitude blowups. allocs/op and B/op are
// compared against baseline*1.25 plus a small constant (2 allocs, 512 B):
// both are nearly deterministic, so a tight bound catches a hot loop that
// starts allocating more often or in bigger pieces — an arena that grows
// back to a dense size keeps its allocation count but not its bytes. The
// BENCH_TOLERANCE environment variable overrides -tolerance for slow CI
// runners. The baseline's optional "host" block (CPU count, CPU model, Go
// version) is printed first, so a run on a different machine class reads
// as one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

// metrics is one benchmark's measured numbers, in the baseline file's
// "current" shape.
type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// host is the machine a baseline was recorded on.
type host struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

// baselineFile mirrors BENCH_netsim.json. Only "current" and "host" matter
// here; the optional "seed" entries are historical context.
type baselineFile struct {
	Host       *host `json:"host"`
	Benchmarks map[string]struct {
		Current metrics `json:"current"`
	} `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_netsim.json", "baseline JSON written by scripts/bench.sh")
	tolerance := fs.Float64("tolerance", 5, "allowed ns/op factor over baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if env := os.Getenv("BENCH_TOLERANCE"); env != "" {
		f, err := strconv.ParseFloat(env, 64)
		if err != nil {
			return fmt.Errorf("BENCH_TOLERANCE %q: %w", env, err)
		}
		*tolerance = f
	}
	if *tolerance <= 0 {
		return fmt.Errorf("tolerance %v must be positive", *tolerance)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("%s has no benchmarks", *baselinePath)
	}
	if h := base.Host; h != nil {
		fmt.Fprintf(w, "baseline host: %d CPUs, %s, %s\n", h.NProc, h.CPU, h.Go)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	observed, err := parseBench(in)
	if err != nil {
		return err
	}

	baseline := make(map[string]metrics, len(base.Benchmarks))
	for name, b := range base.Benchmarks {
		baseline[name] = b.Current
	}
	checked, violations := check(baseline, observed, *tolerance)
	if checked == 0 {
		return fmt.Errorf("no observed benchmark matches the %d baselines in %s", len(baseline), *baselinePath)
	}
	for _, v := range violations {
		fmt.Fprintln(w, "REGRESSION:", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed past tolerance", len(violations), checked)
	}
	fmt.Fprintf(w, "benchguard OK: %d benchmarks within tolerance (ns/op x%g, allocs x1.25+%d, B/op x1.25+%d)\n",
		checked, *tolerance, allocSlack, byteSlack)
	return nil
}

// benchLine matches the trailing goroutine suffix `go test` appends to
// benchmark names (BenchmarkFabricSim-8 → BenchmarkFabricSim).
var benchLine = regexp.MustCompile(`-[0-9]+$`)

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// Lines look like
//
//	BenchmarkFabricSim-8   5000   206334 ns/op   216313 B/op   1132 allocs/op
//
// possibly with extra ReportMetric pairs (e.g. "42.0 savings-%") mixed in;
// values are keyed by their unit so extra metrics pass through harmlessly.
// A benchmark that appears multiple times (e.g. -count>1) keeps its best
// (lowest) ns/op, matching how a human reads repeated runs.
func parseBench(r io.Reader) (map[string]metrics, error) {
	out := map[string]metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := benchLine.ReplaceAllString(fields[0], "")
		var m metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = val
				seen = true
			case "B/op":
				m.BytesPerOp = val
			case "allocs/op":
				m.AllocsPerOp = val
			}
		}
		if !seen {
			continue
		}
		if prev, ok := out[name]; !ok || m.NsPerOp < prev.NsPerOp {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// allocSlack and byteSlack are the constants added to 1.25× the baseline
// allocs/op and B/op, so near-zero baselines tolerate one-off noise.
const (
	allocSlack = 2
	byteSlack  = 512
)

// check compares every observed benchmark that has a baseline and returns
// the number checked plus human-readable violation descriptions.
func check(baseline, observed map[string]metrics, tolerance float64) (int, []string) {
	checked := 0
	var violations []string
	for name, obs := range observed {
		base, ok := baseline[name]
		if !ok {
			continue
		}
		checked++
		if limit := base.NsPerOp * tolerance; base.NsPerOp > 0 && obs.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op x%g = %.0f",
				name, obs.NsPerOp, base.NsPerOp, tolerance, limit))
		}
		if limit := base.AllocsPerOp*1.25 + allocSlack; obs.AllocsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f allocs/op exceeds baseline %.0f allocs/op x1.25+%d = %.1f",
				name, obs.AllocsPerOp, base.AllocsPerOp, allocSlack, limit))
		}
		if limit := base.BytesPerOp*1.25 + byteSlack; obs.BytesPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f B/op exceeds baseline %.0f B/op x1.25+%d = %.1f",
				name, obs.BytesPerOp, base.BytesPerOp, byteSlack, limit))
		}
	}
	sort.Strings(violations) // map iteration order must not leak into CI logs
	return checked, violations
}
