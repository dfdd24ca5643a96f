package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"

	"netpowerprop/internal/engine"
)

// A call is one client operation. Most are one HTTP request; a job is a
// submit followed by a stream of its rows to the end frame.
type call struct {
	kind   string // get, batch, stream or job
	method string
	path   string // path and query
	body   []byte // POST body
	// req is what the server computes (for a batch, batch holds one
	// request per row); the in-process replay and verification use it.
	req   engine.Request
	batch []engine.Request
	rows  int // rows a correct answer carries
}

// ops is the number of operations a call counts in attempted/failed:
// each batch row counts on its own.
func (c *call) ops() int {
	if c.kind == "batch" {
		return len(c.batch)
	}
	return 1
}

// workload is one traffic mix, driven as a closed loop of maxConns
// clients. BENCHMARK.json and README.md say why each was chosen.
type workload struct {
	name string
	// tailQ is the tail quantile reported as latency_tail_ms. In a 28 s
	// window every call kind leaves at least ten samples beyond it.
	tailQ float64
	// replayN is how many calls of the sequence the traced replay runs,
	// sized so one replay pass takes a second or two.
	replayN int
	// jobs starts the server with a job directory.
	jobs bool
	// next returns the i-th call of the sequence a generator draws from.
	next func(g *gen, i int) call
}

// workloads lists the benchmark's traffic mixes.
var workloads = []*workload{
	// Hot cache hits: the serving path, with the simulator idle.
	{name: "whatif-hot", tailQ: 0.99, replayN: 20000, next: whatifCall},
	// Cold path enumeration and topology builds.
	{name: "zoo-sim", tailQ: 0.95, replayN: 6, next: zooCall},
	// Long simulation horizons with fault epochs.
	{name: "fault-long", tailQ: 0.95, replayN: 4, next: faultCall},
	// Both engine row paths and the job journal, with the simulator idle.
	{name: "bulk-rows", tailQ: 0.95, replayN: 40, jobs: true, next: bulkCall},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v, or all)", name, names)
}

// gen draws a run's calls from its seed. Warm-up generators draw from a
// key range disjoint from the measured one, so the measured window starts
// with none of its keys cached.
type gen struct {
	seed uint64
	warm bool
	// hot holds 32 parameter tuples per analytic op: the repeated keys.
	hot map[engine.Op][]tuple
}

// Streams of the seed's random numbers; each draw site has its own so
// that adding a draw to one does not shift another.
const (
	drawCall uint64 = iota + 1
	drawHot
	drawPick
	drawVerify
)

func newGen(seed uint64, warm bool) *gen {
	g := &gen{seed: seed, warm: warm, hot: make(map[engine.Op][]tuple)}
	for k, op := range []engine.Op{engine.OpWhatIf, engine.OpCost, engine.OpTable3} {
		for j := 0; j < 32; j++ {
			g.hot[op] = append(g.hot[op], g.tuple(g.rng(drawHot, k*32+j)))
		}
	}
	return g
}

// rng returns the generator for draw i of a stream.
func (g *gen) rng(stream uint64, i int) *rand.Rand {
	salt := stream << 32
	if g.warm {
		salt |= 1 << 63
	}
	return rand.New(rand.NewPCG(g.seed, salt^uint64(i)))
}

// distinct returns a scenario seed no other call of the run, warm-up
// included, uses.
func (g *gen) distinct(i int) int {
	s := int(g.seed%1000)*1_000_000 + i + 1
	if g.warm {
		s += 500_000
	}
	return s
}

// offset is a per-seed phase for the stratified choices below.
func (g *gen) offset() int { return int(g.seed % 997) }

// tuple is one analytic cluster scenario.
type tuple struct {
	gpus    int
	bw      string
	ratio   float64
	netprop float64
}

// tuple draws a scenario; measured comm ratios lie in [0.05, 0.5) and
// warm-up ones in [0.5, 0.95), so the two key ranges never meet. Network
// proportionality stays at or above the 10% baseline /v1/cost prices an
// upgrade from.
func (g *gen) tuple(r *rand.Rand) tuple {
	lo := 0.05
	if g.warm {
		lo = 0.5
	}
	return tuple{
		gpus:    []int{1024, 2048, 4096, 8192, 15360}[r.IntN(5)],
		bw:      []string{"100G", "200G", "400G", "800G"}[r.IntN(4)],
		ratio:   lo + 0.45*r.Float64(),
		netprop: 0.1 + 0.9*r.Float64(),
	}
}

func (t tuple) request(op engine.Op) engine.Request {
	np := t.netprop
	return engine.Request{Op: op, GPUs: t.gpus, Bandwidth: t.bw, CommRatio: t.ratio, NetworkProportionality: &np}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// getCall is a GET of an analytic op, one answer per call.
func getCall(op engine.Op, t tuple) call {
	q := url.Values{}
	q.Set("gpus", strconv.Itoa(t.gpus))
	q.Set("bw", t.bw)
	q.Set("ratio", ftoa(t.ratio))
	q.Set("netprop", ftoa(t.netprop))
	return call{kind: "get", method: "GET", path: "/v1/" + string(op) + "?" + q.Encode(),
		req: t.request(op), rows: 1}
}

// whatifCall: 70% whatif, 15% cost, 15% table3; 90% from the hot set,
// 10% distinct.
func whatifCall(g *gen, i int) call {
	r := g.rng(drawCall, i)
	op := engine.OpWhatIf
	switch u := r.Float64(); {
	case u >= 0.85:
		op = engine.OpTable3
	case u >= 0.70:
		op = engine.OpCost
	}
	if r.Float64() < 0.9 {
		return getCall(op, g.hot[op][r.IntN(32)])
	}
	return getCall(op, g.tuple(r))
}

// scenarioCall is a GET of a row-structured §4 scenario.
func scenarioCall(name string, params map[string]float64, rows int) call {
	q := url.Values{}
	for k, v := range params {
		q.Set(k, ftoa(v))
	}
	return call{kind: "get", method: "GET", path: "/v1/scenarios/" + name + "?" + q.Encode(),
		req: engine.Request{Op: engine.OpScenario, Scenario: name, Params: params}, rows: rows}
}

// zooRows is the topology zoo's size: one table row per topology.
const zooRows = 8

// zooCall cycles the host count through 16, 24 and 32, so every window
// carries the same mix.
func zooCall(g *gen, i int) call {
	hosts := []float64{16, 24, 32}[(i+g.offset())%3]
	return scenarioCall("topologies", map[string]float64{
		"hosts": hosts, "iters": 2, "seed": float64(g.distinct(i))}, zooRows)
}

// faultRows is the fault sweep's size: 3 failure rates x 2 gating levels.
const faultRows = 6

func faultCall(g *gen, i int) call {
	return scenarioCall("faults", map[string]float64{
		"radix": 4, "iters": 32, "seed": float64(g.distinct(i))}, faultRows)
}

// bulkKinds is one block of ten bulk-rows calls: 50% batch, 30% stream,
// 20% job. Each block is shuffled, so every window carries the same mix.
var bulkKinds = []string{"batch", "batch", "batch", "batch", "batch", "stream", "stream", "stream", "job", "job"}

func bulkCall(g *gen, i int) call {
	block := append([]string(nil), bulkKinds...)
	br := g.rng(drawPick, i/len(block))
	br.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	switch block[i%len(block)] {
	case "batch":
		return batchCall(g, i)
	case "stream":
		return streamCall(g, i)
	default:
		return jobCall(g, i)
	}
}

// batchCall is 64 whatif rows in one POST: half repeat hot keys, half
// are distinct.
func batchCall(g *gen, i int) call {
	r := g.rng(drawCall, i)
	reqs := make([]engine.Request, 64)
	for j := range reqs {
		t := g.tuple(r)
		if j < 32 {
			t = g.hot[engine.OpWhatIf][r.IntN(32)]
		}
		reqs[j] = t.request(engine.OpWhatIf)
	}
	body, _ := json.Marshal(struct {
		Requests []engine.Request `json:"requests"`
	}{reqs})
	return call{kind: "batch", method: "POST", path: "/v1/batch", body: body, batch: reqs, rows: len(reqs)}
}

// streamCall is a streamed sweep of a distinct scenario. Steps walk
// [16, 64) with a stride coprime to its width, so every window carries
// the same spread of sizes.
func streamCall(g *gen, i int) call {
	steps := 16 + (g.offset()+i*29)%48
	ratio := g.tuple(g.rng(drawCall, i)).ratio
	return call{kind: "stream", method: "GET",
		path: fmt.Sprintf("/v1/sweep?steps=%d&ratio=%s&stream=1", steps, ftoa(ratio)),
		req:  engine.Request{Op: engine.OpSweep, Steps: steps, CommRatio: ratio}, rows: steps + 1}
}

// jobCall is a durable sweep job of a distinct scenario, steps in
// [40, 120).
func jobCall(g *gen, i int) call {
	steps := 40 + (g.offset()+i*37)%80
	req := engine.Request{Op: engine.OpSweep, Steps: steps, CommRatio: g.tuple(g.rng(drawCall, i)).ratio}
	body, _ := json.Marshal(req)
	return call{kind: "job", method: "POST", path: "/v1/jobs", body: body, req: req, rows: steps + 1}
}
