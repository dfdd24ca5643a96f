// Command bench is the repository's end-to-end benchmark, the yardstick
// for every performance claim. For one workload it builds cmd/serve from
// the tree under test, starts a fresh server (timing its set-up), warms it
// on keys disjoint from the measured ones, drives the measured window from
// this process as a closed loop of two clients, checks every answer, and
// recomputes a sample of them in-process. With -trace 1 it then stops the
// server and replays the start of the same seeded call sequence in-process
// with a span around every call into a layer (trace.go), and reports the
// per-layer metrics instead of the end-to-end ones.
//
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload zoo-sim --seed 1 --seconds 28 --trace 0
//
// Human-readable detail goes first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. A wrong
// or failed answer makes the command exit 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"netpowerprop/internal/engine"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; a test holds the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"cpu_ms_per_row", "ms"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.http_us_mean", "us"},
	{"serve.encode_us_mean", "us"},
	{"serve.resp_bytes_mean", "bytes"},
	{"admit.us_mean", "us"},
	{"admit.allowed", "count"},
	{"engine.normalize_us_mean", "us"},
	{"engine.key_us_mean", "us"},
	{"engine.key_bytes_mean", "bytes"},
	{"engine.do_us_mean.hit", "us"},
	{"engine.do_us_mean.miss", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.compute_ms_mean", "ms"},
	{"engine.wait_ms_mean", "ms"},
	{"engine.dobatch_ms_mean", "ms"},
	{"engine.plan_us_mean", "us"},
	{"engine.execrow_us_mean", "us"},
	{"topo.build_ms_mean", "ms"},
	{"topo.paths_ms_per_row", "ms"},
	{"topo.paths_per_pair", "count"},
	{"traffic.flows_per_run", "count"},
	{"fault.generate_us_mean", "us"},
	{"fault.epochs_per_run", "count"},
	{"netsim.run_ms_mean", "ms"},
	{"netsim.run_serial_ms_mean", "ms"},
	{"netsim.allocs_per_run", "count"},
	{"netsim.bytes_per_run", "bytes"},
	{"netsim.trace_segments_per_run", "count"},
	{"netsim.energy_us_mean", "us"},
	{"jobs.submit_ms_mean", "ms"},
	{"jobs.row_ms_mean", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gen.client_gap_us_mean", "us"},
	{"trace.overhead_pct", "%"},
}

const (
	// warmup runs before the measured window, on disjoint keys.
	warmup = 3 * time.Second
	// setupRuns is how many server starts the set-up time is the median of.
	setupRuns = 21
	// verifyN answers per run are recomputed in-process and compared,
	// drawn from the answers of every keepEvery-th call: one in 16 keeps
	// the decoding of kept answers off the cache-hit path's client, and
	// still leaves a 28 s fault-long window more than verifyN to draw from.
	verifyN   = 16
	keepEvery = 16
	// batchQueue is the engine queue bound bulk-rows' server and every
	// replay run with: a 64-row batch fans its distinct rows out at once,
	// which the default bound of 4 x workers would shed.
	batchQueue = 4096
	// rssEvery is how often the server's resident set is sampled.
	rssEvery = 250 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 28, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay; 0 end-to-end ones")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := mainErr(*name, *seed, *seconds, *trace, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace, runs int) error {
	if seconds < 1 || runs < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		return fmt.Errorf("want -seconds >= 1, -runs >= 1, -trace 0 or 1 and no arguments")
	}
	wls := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		wls = []*workload{w}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bin, err := buildServe(root)
	if err != nil {
		return err
	}
	for r := 0; r < runs; r++ {
		for _, w := range wls {
			res, err := measure(w, seed+uint64(r), time.Duration(seconds)*time.Second, trace == 1, root, bin)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Println(string(line))
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed or answered wrong", w.name, res.Failed, res.Attempted)
			}
		}
	}
	return nil
}

// measure runs one workload once.
func measure(w *workload, seed uint64, window time.Duration, traced bool, root, bin string) (*result, error) {
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	var args []string
	if w.jobs {
		dir := filepath.Join(out, w.name+".jobs")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		args = []string{"-jobdir", dir, "-queue", strconv.Itoa(batchQueue)}
	}
	srv, setup, err := startTimed(bin, args, filepath.Join(out, w.name+".serve.log"))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	warm := newGen(seed, true)
	outs := runClosed(srv.addr, time.Now(), min(warmup, window),
		func(i int) call { return w.next(warm, i) }, func(int) bool { return false })
	if err := firstErr(outs); err != nil {
		return nil, fmt.Errorf("warm-up: %w\nserver log:\n%s", err, srv.logTail())
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	g := newGen(seed, false)
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	stopRSS := srv.watchRSS(rssEvery)
	outs = runClosed(srv.addr, time.Now(), window,
		func(i int) call { return w.next(g, i) }, func(i int) bool { return i%keepEvery == 0 })
	rssKB, err := stopRSS()
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	srv.stop()
	if srv.err != nil {
		return nil, fmt.Errorf("server exit: %v\n%s", srv.err, srv.logTail())
	}
	if err := verify(w, g, outs); err != nil {
		return nil, err
	}

	res := &result{Metrics: make(map[string]metric)}
	for _, o := range outs {
		res.Attempted += o.ops
		res.Failed += o.failed
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s seed %d: %v window, %d calls, %d operations, %d failed or wrong\n",
		w.name, seed, window, len(outs), res.Attempted, res.Failed)
	if err := firstErr(outs); err != nil {
		fmt.Printf("  first failure: %v\n", err)
	}
	vals := endToEndValues(w, outs, window, setup, cpu1-cpu0, rssKB)
	defs := endToEnd
	if traced {
		defs = perLayer
		rec, overhead, err := traceRun(w, g, out)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if err := writeSpans(filepath.Join(out, w.name+".spans.jsonl"), rec.spans); err != nil {
			return nil, err
		}
		printSelfTimes(rec.spans)
		m := delta(before, after)
		printComputeByOp(m)
		vals = layerValues(rec, overhead, outs, m)
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v)", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-30s %14.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// startTimed starts setupRuns servers one after another, keeps the last
// running, and returns the median set-up time.
func startTimed(bin string, args []string, logPath string) (*server, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		srv, d, err := startServer(bin, args, logPath)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == setupRuns-1 {
			return srv, median(times), nil
		}
		srv.stop()
	}
}

func firstErr(outs []outcome) error {
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// verify recomputes up to verifyN kept answers in-process and compares
// them byte for byte; a mismatch fails the call.
func verify(w *workload, g *gen, outs []outcome) error {
	var kept []int
	for i, o := range outs {
		if o.err == nil && o.got != nil {
			kept = append(kept, i)
		}
	}
	r := g.rng(drawVerify, 1)
	r.Shuffle(len(kept), func(a, b int) { kept[a], kept[b] = kept[b], kept[a] })
	eng := engine.New(engine.Options{})
	for _, i := range kept[:min(verifyN, len(kept))] {
		o := &outs[i]
		c := w.next(g, o.index)
		want, err := expected(eng, &c)
		if err != nil {
			return fmt.Errorf("recompute %s %s: %w", c.method, c.path, err)
		}
		if !slices.EqualFunc(want, o.got, bytes.Equal) {
			o.err = fmt.Errorf("%s %s: served answer differs from the in-process engine's", c.method, c.path)
			o.failed = o.ops
		}
	}
	return nil
}

// expected is what a correct server answers for c, in the compact form
// the benchmark keeps.
func expected(eng *engine.Engine, c *call) ([][]byte, error) {
	ctx := context.Background()
	if c.kind == "batch" {
		var out [][]byte
		for _, req := range c.batch {
			res, _, err := eng.Do(ctx, req)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	res, _, err := eng.Do(ctx, c.req)
	if err != nil {
		return nil, err
	}
	if c.kind == "stream" {
		var out [][]byte
		for _, pt := range res.Sweep {
			b, err := json.Marshal(pt)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	b, err := json.Marshal(res)
	return [][]byte{b}, err
}

// endToEndValues computes the end-to-end metrics of a window. Latency is
// taken per call kind and combined by geometric mean, so a workload
// mixing kinds of very different cost is not summarized by whichever kind
// happens to straddle its median.
func endToEndValues(w *workload, outs []outcome, window time.Duration, setup float64, cpuTicks int64, rssKB []int64) map[string]float64 {
	lat := make(map[string][]float64)
	rows, inWindow := 0, 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		lat[o.kind] = append(lat[o.kind], ms(o.latency()))
		rows += o.rows
		if o.done <= window {
			inWindow += o.rows
		}
	}
	kinds := make([]string, 0, len(lat))
	for k := range lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var p50s, tails []float64
	for _, k := range kinds {
		xs := lat[k]
		if q := highestQuantile(len(xs)); q < w.tailQ {
			fmt.Printf("  warning: %d %s samples leave fewer than 10 beyond p%g\n", len(xs), k, 100*w.tailQ)
		}
		p50, tail := quantile(xs, 0.5), quantile(xs, w.tailQ)
		fmt.Printf("  %-6s n=%-7d p50 %.4g ms  p%g %.4g ms\n", k, len(xs), p50, 100*w.tailQ, tail)
		p50s, tails = append(p50s, p50), append(tails, tail)
	}
	rss := make([]float64, len(rssKB))
	for i, kb := range rssKB {
		rss[i] = float64(kb) / 1024
	}
	return map[string]float64{
		"setup_s":         setup,
		"latency_p50_ms":  geomean(p50s),
		"latency_tail_ms": geomean(tails),
		"rows_per_s":      float64(inWindow) / window.Seconds(),
		"cpu_ms_per_row":  float64(cpuTicks) * 1000 / ticksPerSecond / float64(rows),
		"rss_mb":          median(rss),
	}
}

// layerValues computes the per-layer metrics from the traced replay, the
// window's /metrics delta and the benchmark's own records.
func layerValues(rec *recorder, overhead float64, outs []outcome, m map[string]float64) map[string]float64 {
	vals := rec.values()
	httpSum := sumSeries(m, "netpowerprop_http_request_duration_seconds_sum", apiRoute)
	httpN := sumSeries(m, "netpowerprop_http_request_duration_seconds_count", apiRoute)
	computeSum := sumSeries(m, "netpowerprop_engine_compute_duration_seconds_sum", nil)
	computeN := sumSeries(m, "netpowerprop_engine_compute_duration_seconds_count", nil)
	rowSum := sumSeries(m, "netpowerprop_engine_row_duration_seconds_sum", nil)
	hits := sumSeries(m, "netpowerprop_engine_cache_hits_total", nil)
	misses := sumSeries(m, "netpowerprop_engine_cache_misses_total", nil)
	vals["serve.http_us_mean"] = httpSum / httpN * 1e6
	vals["admit.allowed"] = sumSeries(m, "netpowerprop_admit_allowed_total", nil)
	vals["engine.hit_ratio"] = hits / (hits + misses)
	vals["engine.compute_ms_mean"] = computeSum / computeN * 1e3
	// Time outside any computation: queue wait, fan-out oversubscription,
	// journal waits and serving overhead.
	vals["engine.wait_ms_mean"] = (httpSum - computeSum - rowSum) / httpN * 1e3

	var late []float64
	var clientN int
	var clientTime time.Duration
	var bytes int64
	for _, o := range outs {
		late = append(late, ms(o.late))
		clientN += o.httpN
		clientTime += o.httpTime
		bytes += o.bytes
	}
	vals["serve.resp_bytes_mean"] = float64(bytes) / float64(clientN)
	vals["gen.late_ms_p99"] = quantile(late, 0.99)
	vals["gen.client_gap_us_mean"] = us(clientTime)/float64(clientN) - vals["serve.http_us_mean"]
	vals["trace.overhead_pct"] = overhead
	return vals
}

// apiRoute keeps the series of API routes: every route but the probes
// the benchmark itself sends between windows.
func apiRoute(labels string) bool {
	return !strings.Contains(labels, `route="GET /healthz"`) && !strings.Contains(labels, `route="GET /metrics"`)
}

// printComputeByOp prints engine.compute_ms_mean split by operation, for
// the operations the window ran.
func printComputeByOp(m map[string]float64) {
	for _, op := range []string{"whatif", "cost", "table3", "fig3", "fig4", "sweep", "scenario"} {
		label := `{op="` + op + `"}`
		if n := m["netpowerprop_engine_compute_duration_seconds_count"+label]; n > 0 {
			sum := m["netpowerprop_engine_compute_duration_seconds_sum"+label]
			fmt.Printf("  engine.compute_ms_mean.%-9s %11.4g ms over %.0f computations\n", op, sum/n*1e3, n)
		}
	}
}

// printSelfTimes prints the traced pass's span names by total self time.
func printSelfTimes(spans []span) {
	fmt.Println("  span                              calls     mean_us     self_us  (self = less child spans)")
	for _, s := range selfTimes(spans) {
		fmt.Printf("  %-32s %6d %11.2f %11.2f\n", s.name, s.n, s.total/float64(s.n), s.self/float64(s.n))
	}
}
