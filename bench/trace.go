package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netpowerprop/internal/admit"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// This file is the traced run: the first calls of the measured sequence
// replayed serially in-process, as cmd/serve would run them, with a span
// around every call into a layer's public function. Calls the server
// makes through unexported code (HTTP decode, writeJSON) are mirrored
// here; a scenario call is followed by a probe that re-runs its rows
// through topo, traffic, fault and netsim directly and must reproduce the
// engine's cells, or the run fails.

// span is one timed call; times are nanoseconds from the replay start.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// stat accumulates one per-layer value.
type stat struct {
	n   int
	sum float64
}

// recorder holds a traced pass's spans and per-layer values. A nil
// recorder records nothing: the untraced pass the overhead is measured
// against.
type recorder struct {
	t0    time.Time
	spans []span
	// req is the replayed call's index; calls at or past own are the
	// layer probe's.
	req, own  int
	ownVals   map[string]stat
	probeVals map[string]stat
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
}

func newRecorder(own, calls int) *recorder {
	return &recorder{t0: time.Now(), own: own, spans: make([]span, 0, 8*calls),
		ownVals: make(map[string]stat), probeVals: make(map[string]stat)}
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Req: r.req, Name: name, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[i]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// rename names span i once its outcome is known.
func (r *recorder) rename(i int, name string) {
	if r != nil {
		r.spans[i].Name = name
	}
}

// add records one sample of a per-layer value that is not a span's
// duration, such as a count.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	m := r.ownVals
	if r.req >= r.own {
		m = r.probeVals
	}
	accumulate(m, name, v)
}

func accumulate(m map[string]stat, name string, v float64) {
	s := m[name]
	m[name] = stat{s.n + 1, s.sum + v}
}

// spanMetrics maps a span name to the per-layer metric that averages its
// duration, and that metric's unit in nanoseconds.
var spanMetrics = map[string]struct {
	metric string
	unit   float64
}{
	"admit.Controller.Admit":   {"admit.us_mean", 1e3},
	"engine.Request.Normalize": {"engine.normalize_us_mean", 1e3},
	"engine.Request.Key":       {"engine.key_us_mean", 1e3},
	"engine.Engine.Do/hit":     {"engine.do_us_mean.hit", 1e3},
	"engine.Engine.Do/miss":    {"engine.do_us_mean.miss", 1e3},
	"engine.Engine.DoBatch":    {"engine.dobatch_ms_mean", 1e6},
	"engine.Engine.Plan":       {"engine.plan_us_mean", 1e3},
	"engine.Engine.ExecRow":    {"engine.execrow_us_mean", 1e3},
	"topo.Build":               {"topo.build_ms_mean", 1e6},
	"fattree.BuildThreeTier":   {"topo.build_ms_mean", 1e6},
	"fattree.Topology.Paths":   {"topo.paths_ms_per_row", 1e6},
	"fault.Generate":           {"fault.generate_us_mean", 1e3},
	"netsim.Sim.RunParallel":   {"netsim.run_ms_mean", 1e6},
	"netsim.Sim.Run":           {"netsim.run_serial_ms_mean", 1e6},
	"netsim.Sim.Energy":        {"netsim.energy_us_mean", 1e3},
	"jobs.Manager.Submit":      {"jobs.submit_ms_mean", 1e6},
}

// values returns the per-layer means: each over the workload's own calls,
// or over the layer probe's when the workload never reaches that layer.
// Span durations are folded in here, after the pass, to keep the traced
// pass's own cost low. serve.encode_us_mean sums a call's encode spans,
// as a stream encodes one frame per row.
func (r *recorder) values() map[string]float64 {
	own, probe := maps.Clone(r.ownVals), maps.Clone(r.probeVals)
	pick := func(req int) map[string]stat {
		if req >= r.own {
			return probe
		}
		return own
	}
	encode := make(map[int]float64)
	for _, s := range r.spans {
		d := float64(s.End - s.Start)
		if m, ok := spanMetrics[s.Name]; ok {
			accumulate(pick(s.Req), m.metric, d/m.unit)
		}
		if s.Name == "serve.encode" {
			encode[s.Req] += d
		}
	}
	for req, d := range encode {
		accumulate(pick(req), "serve.encode_us_mean", d/1e3)
	}
	out := make(map[string]float64)
	for _, m := range []map[string]stat{probe, own} {
		for name, s := range m {
			out[name] = s.sum / float64(s.n)
		}
	}
	return out
}

// memStart and memEnd bracket a call with runtime.MemStats readings and
// record its allocations. They stop the world, so they sit outside spans.
func (r *recorder) memStart() {
	if r != nil {
		runtime.ReadMemStats(&r.memBefore)
	}
}

func (r *recorder) memEnd(prefix string) {
	if r == nil {
		return
	}
	runtime.ReadMemStats(&r.memAfter)
	r.add(prefix+".allocs_per_run", float64(r.memAfter.Mallocs-r.memBefore.Mallocs))
	r.add(prefix+".bytes_per_run", float64(r.memAfter.TotalAlloc-r.memBefore.TotalAlloc))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replayer runs calls the way cmd/serve does, against serve's defaults.
type replayer struct {
	eng *engine.Engine
	adm *admit.Controller
	jm  *jobs.Manager
	rec *recorder
	buf bytes.Buffer
}

// apiResponse mirrors cmd/serve's synchronous response body.
type apiResponse struct {
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Result    *engine.Result `json:"result"`
}

// batchItem and batchResponse mirror cmd/serve's /v1/batch body.
type batchItem struct {
	Result *engine.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	Cached bool           `json:"cached,omitempty"`
	Shared bool           `json:"shared,omitempty"`
}

type batchResponse struct {
	Items     []batchItem `json:"items"`
	Rows      int         `json:"rows"`
	Cached    int         `json:"cached"`
	Errors    int         `json:"errors"`
	Shed      int         `json:"shed"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// encode serializes v as cmd/serve does: indented for synchronous
// answers (writeJSON), compact for batch and stream frames.
func (p *replayer) encode(v any, indent bool, parent int) error {
	i := p.rec.begin("serve.encode", parent)
	defer p.rec.end(i)
	p.buf.Reset()
	enc := json.NewEncoder(&p.buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// run replays one call.
func (p *replayer) run(c *call) error {
	ctx := context.Background()
	root := p.rec.begin("request", -1)
	defer p.rec.end(root)
	// cmd/serve admits a batch at its row count and anything else as one.
	i := p.rec.begin("admit.Controller.Admit", root)
	d := p.adm.Admit("default", admit.Normal, c.ops())
	p.rec.end(i)
	if !d.OK {
		return fmt.Errorf("admission refused: %v", d.Reason)
	}
	reqs := c.batch
	if c.kind != "batch" {
		reqs = []engine.Request{c.req}
	}
	for _, req := range reqs {
		i := p.rec.begin("engine.Request.Normalize", root)
		norm, err := req.Normalize()
		p.rec.end(i)
		if err != nil {
			return err
		}
		i = p.rec.begin("engine.Request.Key", root)
		key := norm.Key()
		p.rec.end(i)
		p.rec.add("engine.key_bytes_mean", float64(len(key)))
	}
	switch c.kind {
	case "get":
		return p.get(ctx, c, root)
	case "batch":
		return p.batch(ctx, c, root)
	case "stream":
		return p.stream(ctx, c, root)
	case "job":
		return p.job(ctx, c, root)
	}
	return fmt.Errorf("unknown call kind %q", c.kind)
}

func (p *replayer) get(ctx context.Context, c *call, root int) error {
	i := p.rec.begin("engine.Engine.Do", root)
	res, cached, err := p.eng.Do(ctx, c.req)
	d := p.rec.end(i)
	if err != nil {
		return err
	}
	if cached {
		p.rec.rename(i, "engine.Engine.Do/hit")
	} else {
		p.rec.rename(i, "engine.Engine.Do/miss")
	}
	if err := p.encode(apiResponse{Cached: cached, ElapsedMS: ms(d), Result: res}, true, root); err != nil {
		return err
	}
	if c.req.Op != engine.OpScenario || cached {
		return nil
	}
	probe := p.rec.begin("probe", root)
	defer p.rec.end(probe)
	switch c.req.Scenario {
	case "topologies":
		return p.zooProbe(res, probe)
	case "faults":
		return p.faultProbe(res, probe)
	}
	return nil
}

func (p *replayer) batch(ctx context.Context, c *call, root int) error {
	i := p.rec.begin("engine.Engine.DoBatch", root)
	items := p.eng.DoBatch(ctx, c.batch)
	d := p.rec.end(i)
	resp := batchResponse{Items: make([]batchItem, len(items)), Rows: len(items), ElapsedMS: ms(d)}
	for j, it := range items {
		if it.Err != nil {
			return fmt.Errorf("batch row %d: %w", j, it.Err)
		}
		resp.Items[j] = batchItem{Result: it.Result, Cached: it.Cached, Shared: it.Shared}
	}
	return p.encode(resp, false, root)
}

// stream runs a streamed sweep as engine.Stream does, through Plan and
// one ExecRow per row, so both get their own spans.
func (p *replayer) stream(ctx context.Context, c *call, root int) error {
	i := p.rec.begin("engine.Engine.Plan", root)
	plan, err := p.eng.Plan(c.req)
	p.rec.end(i)
	if err != nil {
		return err
	}
	rows := make([]json.RawMessage, plan.Rows())
	for j := range rows {
		i := p.rec.begin("engine.Engine.ExecRow", root)
		data, err := p.eng.ExecRow(ctx, plan, j)
		p.rec.end(i)
		if err != nil {
			return err
		}
		rows[j] = data
		if err := p.encode(struct {
			Row  int             `json:"row"`
			Data json.RawMessage `json:"data"`
		}{j, data}, false, root); err != nil {
			return err
		}
	}
	res, err := plan.Assemble(rows, nil)
	if err != nil {
		return err
	}
	p.eng.Prime(plan.Key(), res)
	return nil
}

func (p *replayer) job(ctx context.Context, c *call, root int) error {
	i := p.rec.begin("jobs.Manager.Submit", root)
	snap, _, err := p.jm.Submit(ctx, c.req)
	p.rec.end(i)
	if err != nil {
		return err
	}
	i = p.rec.begin("jobs.Manager.Wait", root)
	final, err := p.jm.Wait(ctx, snap.ID)
	d := p.rec.end(i)
	if err != nil {
		return err
	}
	if final.State != jobs.StateDone || final.Rows != c.rows {
		return fmt.Errorf("job %s ended %s with %d rows, want done with %d", snap.ID, final.State, final.Rows, c.rows)
	}
	p.rec.add("jobs.row_ms_mean", ms(d)/float64(final.Rows))
	return p.encode(struct {
		End    bool           `json:"end"`
		Rows   int            `json:"rows"`
		State  jobs.State     `json:"state"`
		Result *engine.Result `json:"result"`
	}{true, final.Rows, final.State, final.Result}, false, root)
}

// pairs lists the distinct (src, dst) pairs of flows, in first-use order.
func pairs(seen map[[2]int]bool, out [][2]int, flows []traffic.Flow) [][2]int {
	for _, f := range flows {
		k := [2]int{f.Src, f.Dst}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// paths times Topology.Paths over every pair a row's flows use.
func (p *replayer) paths(top *fattree.Topology, ps [][2]int, parent int) error {
	i := p.rec.begin("fattree.Topology.Paths", parent)
	n := 0
	for _, pr := range ps {
		got, err := top.Paths(pr[0], pr[1])
		if err != nil {
			return err
		}
		n += len(got)
	}
	p.rec.end(i)
	p.rec.add("topo.paths_per_pair", float64(n)/float64(len(ps)))
	return nil
}

// simulate runs one phase as the engine does (RunParallel with
// GOMAXPROCS workers on the row's simulator), then the same flows through
// serial Run on a twin simulator that has seen the same phases, so both
// calls meet equally warm path caches.
func (p *replayer) simulate(par, ser *netsim.Sim, tr *fault.Trace, flows []traffic.Flow, parent int) (*netsim.Result, error) {
	par.Faults, ser.Faults = tr, tr
	i := p.rec.begin("netsim.Sim.RunParallel", parent)
	res, err := par.RunParallel(flows, 0)
	p.rec.end(i)
	if err != nil {
		return nil, err
	}
	p.rec.memStart()
	i = p.rec.begin("netsim.Sim.Run", parent)
	sres, err := ser.Run(flows)
	p.rec.end(i)
	p.rec.memEnd("netsim")
	if err != nil {
		return nil, err
	}
	segs := 0
	for _, t := range sres.LinkTrace {
		segs += len(t)
	}
	for _, t := range sres.SwitchTrace {
		segs += len(t)
	}
	p.rec.add("netsim.trace_segments_per_run", float64(segs))
	if res.Faults != nil {
		p.rec.add("fault.epochs_per_run", float64(res.Faults.Epochs))
	}
	return res, nil
}

func (p *replayer) flows(job traffic.Job, iters, parent int) ([]traffic.Flow, error) {
	i := p.rec.begin("traffic.Job.Flows", parent)
	flows, err := job.Flows(iters)
	p.rec.end(i)
	p.rec.add("traffic.flows_per_run", float64(len(flows)))
	return flows, err
}

func (p *replayer) generate(cfg fault.GenConfig, seed uint64, parent int) (*fault.Trace, error) {
	i := p.rec.begin("fault.Generate", parent)
	tr, err := fault.Generate(cfg, seed)
	p.rec.end(i)
	return tr, err
}

// zooProbe re-runs every row of a topologies answer (engine topologies.go)
// through the layers and checks its switches, links and reroutes cells.
func (p *replayer) zooProbe(res *engine.Result, parent int) error {
	prm := res.Request.Params
	hosts, iters, seed := int(prm["hosts"]), int(prm["iters"]), uint64(prm["seed"])
	speed, err := units.ParseBandwidth(res.Request.Bandwidth)
	if err != nil {
		return err
	}
	activeLow := max(2, int(math.Ceil(prm["lowload"]*float64(hosts))))
	for idx, name := range topo.Names() {
		i := p.rec.begin("topo.Build", parent)
		top, design, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: speed})
		p.rec.end(i)
		if err != nil {
			return err
		}
		par, ser := netsim.New(top), netsim.New(top)
		par.Routing, ser.Routing = netsim.ConcentrateRouting, netsim.ConcentrateRouting
		hs := top.Hosts()
		seen, used := make(map[[2]int]bool), [][2]int(nil)
		phase := func(active []int, tr *fault.Trace) (*netsim.Result, error) {
			job := traffic.Job{ID: 1, Hosts: active, Period: 1, CommRatio: 0.5,
				Rate:    units.Bandwidth(prm["level"] * float64(speed) / float64(len(active)-1)),
				Pattern: traffic.AllToAll}
			flows, err := p.flows(job, iters, parent)
			if err != nil {
				return nil, err
			}
			used = pairs(seen, used, flows)
			return p.simulate(par, ser, tr, flows, parent)
		}
		low, err := phase(hs[:activeLow], nil)
		if err != nil {
			return err
		}
		high, err := phase(hs, nil)
		if err != nil {
			return err
		}
		var optical []int
		for _, l := range top.Links {
			if l.Optical {
				optical = append(optical, l.ID)
			}
		}
		reroutes := 0
		if len(optical) > 0 {
			mttr := units.Seconds(prm["mttr"])
			tr, err := p.generate(fault.GenConfig{Horizon: units.Seconds(iters), Links: optical,
				Flaps: int(prm["flaps"]), MTTR: mttr, PermanentFailures: int(prm["perm"]),
				WakeStuckProb: 0.25, WakeStuckExtra: mttr}, seed, parent)
			if err != nil {
				return err
			}
			faulted, err := phase(hs, tr)
			if err != nil {
				return err
			}
			if faulted.Faults != nil {
				reroutes = faulted.Faults.Reroutes
			}
		}
		for _, r := range []*netsim.Result{low, high} {
			for _, prop := range []float64{0.1, 1.0} {
				i := p.rec.begin("netsim.Sim.Energy", parent)
				_, err := par.Energy(r, prop, netsim.TwoState)
				p.rec.end(i)
				if err != nil {
					return err
				}
			}
		}
		if err := p.paths(top, used, parent); err != nil {
			return err
		}
		row := res.Table.Rows[idx]
		want := []string{name, fmt.Sprint(design.Switches), fmt.Sprint(design.Links), fmt.Sprint(reroutes)}
		got := []string{row[0], row[1], row[2], row[10]}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("zoo probe drifted from the engine on row %d: topology/switches/links/reroutes %v, engine %v", idx, want, got)
		}
	}
	return nil
}

// The fault sweep's grid (engine faults.go): failure-rate multipliers by
// gating level, one row per cell.
var (
	faultRateMultipliers = []int{1, 2, 4}
	faultGatingLevels    = 2
)

// faultProbe re-runs the fully powered half of every row of a faults
// answer (engine faults.go) through the layers and checks its
// "slowdown (full)" cell.
func (p *replayer) faultProbe(res *engine.Result, parent int) error {
	prm := res.Request.Params
	radix, iters, seed := int(prm["radix"]), int(prm["iters"]), uint64(prm["seed"])
	i := p.rec.begin("fattree.BuildThreeTier", parent)
	top, err := fattree.BuildThreeTier(radix, 100*units.Gbps)
	p.rec.end(i)
	if err != nil {
		return err
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
		Rate: 10 * units.Gbps, Pattern: traffic.AllToAll}
	flows, err := p.flows(job, iters, parent)
	if err != nil {
		return err
	}
	used := pairs(make(map[[2]int]bool), nil, flows)
	ideal := 0.0
	for _, f := range flows {
		ideal += float64(f.Demand) * float64(f.Duration())
	}
	var optical []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	for idx, row := range res.Table.Rows {
		mult := faultRateMultipliers[idx/faultGatingLevels]
		tr, err := p.generate(fault.GenConfig{
			Horizon: units.Seconds(iters) * job.Period, Links: optical,
			Flaps: int(prm["flaps"]) * mult, MTTR: units.Seconds(prm["mttr"]),
			PermanentFailures: mult,
			WakeStuckProb:     prm["stuckprob"], WakeStuckExtra: units.Seconds(prm["stuckextra"]),
		}, seed, parent)
		if err != nil {
			return err
		}
		full, err := p.simulate(netsim.New(top), netsim.New(top), tr, flows, parent)
		if err != nil {
			return err
		}
		delivered := 0.0
		for _, st := range full.Flows {
			delivered += st.DeliveredBits
		}
		slowdown := 0.0
		if delivered > 0 {
			slowdown = ideal / delivered
		}
		if got := fmt.Sprintf("%.3f", slowdown); got != row[2] {
			return fmt.Errorf("fault probe drifted from the engine on row %d: slowdown (full) %s, engine %s", idx, got, row[2])
		}
		if err := p.paths(top, used, parent); err != nil {
			return err
		}
	}
	return nil
}

// layerProbe is appended to every replay: one call into each layer, so a
// per-layer metric the workload's own calls never reach still has a
// value. Its seeds sit between the measured and warm-up ranges.
func layerProbe(g *gen) []call {
	zoo := scenarioCall("topologies", map[string]float64{
		"hosts": 16, "iters": 2, "seed": float64(g.distinct(400_000))}, zooRows)
	faults := scenarioCall("faults", map[string]float64{
		"radix": 4, "iters": 4, "seed": float64(g.distinct(400_001))}, faultRows)
	// The second zoo call is answered from the cache: the hit probe.
	return []call{zoo, zoo, faults, batchCall(g, 400_002), streamCall(g, 400_003), jobCall(g, 400_004)}
}

// replayPass runs calls on a fresh engine, admission controller and job
// store under dir, and returns the wall time.
func replayPass(calls []call, rec *recorder, dir string) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	eng := engine.New(engine.Options{CacheSize: 4096, CacheShards: 16, MaxQueue: batchQueue})
	jm, err := jobs.Open(jobs.Options{Dir: dir, Exec: eng})
	if err != nil {
		return 0, err
	}
	p := &replayer{eng: eng, adm: admit.New(admit.Options{Capacity: eng.Capacity(), Pending: eng.Pending}),
		jm: jm, rec: rec}
	runtime.GC()
	start := time.Now()
	for i := range calls {
		if rec != nil {
			rec.req = i
		}
		if err := p.run(&calls[i]); err != nil {
			jm.Close(context.Background())
			return 0, fmt.Errorf("replay call %d (%s %s): %w", i, calls[i].method, calls[i].path, err)
		}
	}
	d := time.Since(start)
	return d, jm.Close(context.Background())
}

// replayPasses is how many untraced and traced passes traceRun
// alternates; passes of one kind vary by several percent, so the
// overhead compares the fastest of each.
const replayPasses = 3

// traceRun replays the workload's first replayN calls plus the layer
// probe, alternating untraced and traced passes, and returns the last
// traced pass's recorder and the tracing overhead in percent: the fastest
// traced pass against the fastest untraced one.
func traceRun(w *workload, g *gen, out string) (*recorder, float64, error) {
	calls := make([]call, 0, w.replayN+8)
	for i := 0; i < w.replayN; i++ {
		calls = append(calls, w.next(g, i))
	}
	calls = append(calls, layerProbe(g)...)
	dir := filepath.Join(out, w.name+".replay-jobs")
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	var rec *recorder
	for pass := 0; pass < 2*replayPasses; pass++ {
		var r *recorder
		if pass%2 == 1 {
			r = newRecorder(w.replayN, len(calls))
		}
		d, err := replayPass(calls, r, dir)
		if err != nil {
			return nil, 0, err
		}
		best[pass%2] = min(best[pass%2], d)
		if r != nil {
			rec = r
		}
	}
	return rec, 100 * float64(best[1]-best[0]) / float64(best[0]), nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span name's mean duration and mean self time
// (its duration less the time its child spans cover), in microseconds,
// sorted by total self time, largest first.
func selfTimes(spans []span) []selfTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := make(map[string]*selfTime)
	for i, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		a.n++
		a.total += float64(s.End-s.Start) / 1e3
		a.self += float64(s.End-s.Start-child[i]) / 1e3
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

type selfTime struct {
	name        string
	n           int
	total, self float64 // summed, in microseconds
}
