package cosim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/power"
	"netpowerprop/internal/units"
)

// pipeClient connects a Client to an in-process model speaking the real
// wire protocol over io.Pipes — the full NDJSON framing and handshake,
// no subprocess.
func pipeClient(t *testing.T, m Model, opts Options) *Client {
	t.Helper()
	engR, modelW := io.Pipe()
	modelR, engW := io.Pipe()
	go Serve(modelR, modelW, m)
	c, err := NewClient(engW, engR, opts)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c.closeFn = func() error {
		engW.Close()
		modelW.Close()
		return nil
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestHandshake(t *testing.T) {
	c := pipeClient(t, Echo{}, Options{})
	if c.Model() != "echo" {
		t.Errorf("model = %q, want echo", c.Model())
	}
	if !c.Has(CapLatency) || !c.Has(CapPower) {
		t.Errorf("echo should declare both capabilities")
	}
}

// Every malformed model hello is rejected before any request is sent.
func TestHandshakeRejects(t *testing.T) {
	cases := []struct {
		name  string
		hello string
	}{
		{"wrong proto", `{"t":"hello","proto":2,"model":"x","caps":["latency"]}`},
		{"no model name", `{"t":"hello","proto":1,"caps":["latency"]}`},
		{"no caps", `{"t":"hello","proto":1,"model":"x"}`},
		{"unknown cap", `{"t":"hello","proto":1,"model":"x","caps":["latency","thermal"]}`},
		{"not a hello", `{"t":"result","id":1,"value":3}`},
		{"garbage", `not json at all`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engR, modelW := io.Pipe()
			modelR, engW := io.Pipe()
			go func() {
				br := bufio.NewReader(modelR)
				br.ReadString('\n') // engine hello
				io.WriteString(modelW, tc.hello+"\n")
			}()
			c, err := NewClient(engW, engR, Options{HandshakeTimeout: 2 * time.Second})
			if err == nil {
				c.Close()
				t.Fatalf("handshake accepted %s", tc.hello)
			}
			engW.Close()
			modelW.Close()
		})
	}
}

// A model-side evaluation error answers that one call; the client stays
// alive for the next.
func TestModelErrorKeepsClientAlive(t *testing.T) {
	c := pipeClient(t, Echo{}, Options{})
	if _, err := c.Call(&Request{T: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown request type") {
		t.Fatalf("bogus request error = %v, want model error", err)
	}
	v, err := c.Call(&Request{T: TypeLatency, Hops: 3, Bits: 1e9, BottleneckBps: 1e11})
	if err != nil {
		t.Fatalf("call after model error: %v", err)
	}
	if want := float64(netsim.TransferLatency(3, 1e9, 1e11)); v != want {
		t.Errorf("latency = %v, want %v", v, want)
	}
}

// silentModel handshakes, then never answers.
type silentModel struct{}

func (silentModel) Name() string                     { return "silent" }
func (silentModel) Caps() []string                   { return []string{CapLatency} }
func (silentModel) Eval(r *Request) (float64, error) { select {} }

// A call timeout latches the client dead: the lockstep framing cannot be
// trusted after an unanswered request, so later calls fail fast into the
// caller's fallback.
func TestTimeoutLatchesDead(t *testing.T) {
	c := pipeClient(t, silentModel{}, Options{Timeout: 50 * time.Millisecond})
	if _, err := c.Call(&Request{T: TypeLatency, Hops: 1}); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("first call error = %v, want timeout", err)
	}
	start := time.Now()
	if _, err := c.Call(&Request{T: TypeLatency, Hops: 2}); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("second call error = %v, want dead-latch", err)
	}
	if e := time.Since(start); e > 40*time.Millisecond {
		t.Errorf("dead client call took %v, want fail-fast", e)
	}
}

// An out-of-order response id means the streams are desynced — dead.
func TestDesyncLatchesDead(t *testing.T) {
	engR, modelW := io.Pipe()
	modelR, engW := io.Pipe()
	go func() {
		br := bufio.NewReader(modelR)
		br.ReadString('\n')
		io.WriteString(modelW, `{"t":"hello","proto":1,"model":"evil","caps":["latency"]}`+"\n")
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			io.WriteString(modelW, `{"t":"result","id":999,"value":1}`+"\n")
		}
	}()
	c, err := NewClient(engW, engR, Options{Timeout: time.Second})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer func() { engW.Close(); modelW.Close() }()
	if _, err := c.Call(&Request{T: TypeLatency, Hops: 1}); err == nil || !strings.Contains(err.Error(), "desync") {
		t.Fatalf("call error = %v, want desync", err)
	}
	if _, err := c.Call(&Request{T: TypeLatency, Hops: 1}); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("second call error = %v, want dead-latch", err)
	}
}

// The echo model's answers are bit-identical to the in-process formulas
// after a full wire round trip — the foundation of the byte-identity
// acceptance criterion.
func TestEchoBitIdenticalThroughWire(t *testing.T) {
	c := pipeClient(t, Echo{}, Options{})
	b := Bind(c, nil)
	models := b.Models()

	for _, req := range []netsim.LatencyRequest{
		{Src: 1, Dst: 2, Hops: 4, Bits: 3.3e9, BottleneckBps: 1e11},
		{Src: 9, Dst: 0, Hops: 0, Bits: 0, BottleneckBps: 0},
		{Src: 5, Dst: 6, Hops: 6, Bits: 1.0000000001e12, BottleneckBps: 4e11},
	} {
		got, err := models.Latency(req)
		if err != nil {
			t.Fatalf("latency hook: %v", err)
		}
		want := netsim.TransferLatency(req.Hops, req.Bits, req.BottleneckBps)
		if got != want {
			t.Errorf("latency %+v = %v, want bit-identical %v", req, got, want)
		}
	}

	tr := netsim.Trace{
		{Start: 0, End: 0.125, Rate: 0},
		{Start: 0.125, End: 0.3, Rate: 7.77e10},
		{Start: 0.3, End: 1.01, Rate: 1.3e9},
	}
	for _, law := range []netsim.PowerLaw{netsim.TwoState, netsim.Linear} {
		req := netsim.PowerRequest{
			Device: "switch", ID: 7, Max: 750, Proportionality: 0.1,
			Law: law, Capacity: 51.2 * units.Tbps, Trace: tr,
		}
		got, err := models.Power(req)
		if err != nil {
			t.Fatalf("power hook (law %v): %v", law, err)
		}
		m := power.Model{Max: req.Max, Proportionality: req.Proportionality}
		want, err := tr.Energy(m, req.Capacity, law)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("power law %v = %v, want bit-identical %v", law, got, want)
		}
	}
	if lat, pow := b.latency.calls.Value(), b.power.calls.Value(); lat == 0 || pow == 0 {
		t.Errorf("binding counted %d latency / %d power calls, want both > 0", lat, pow)
	}
	if lat, pow := b.latency.fallbacks.Value(), b.power.fallbacks.Value(); lat != 0 || pow != 0 {
		t.Errorf("unexpected fallbacks: %d latency / %d power", lat, pow)
	}
}

// SegmentEnergy (the stub's kernel) and Trace.Energy (the in-process
// kernel) are the same fold.
func TestSegmentEnergyMatchesTraceEnergy(t *testing.T) {
	tr := netsim.Trace{
		{Start: 0, End: 0.1, Rate: 1e9},
		{Start: 0.1, End: 0.2, Rate: 0},
		{Start: 0.2, End: 0.7001, Rate: 3.14159e10},
	}
	segs := make([][2]float64, len(tr))
	for i, s := range tr {
		segs[i] = [2]float64{float64(s.Duration()), float64(s.Rate)}
	}
	m := power.Model{Max: 750, Proportionality: 0.37}
	for _, law := range []netsim.PowerLaw{netsim.TwoState, netsim.Linear} {
		want, err := tr.Energy(m, 1e11, law)
		if err != nil {
			t.Fatal(err)
		}
		got, err := netsim.SegmentEnergy(m, 1e11, law, segs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("law %v: SegmentEnergy = %v, Trace.Energy = %v", law, got, want)
		}
	}
}

// A recorded cassette replays the exact values, and a miss fails closed.
func TestRecorderReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	c := pipeClient(t, Echo{Perturb: 0.25}, Options{})
	rec, err := NewRecorder(c, path)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*Request{
		{T: TypeLatency, Src: 1, Dst: 2, Hops: 3, Bits: 1e9, BottleneckBps: 1e11},
		{T: TypeLatency, Src: 2, Dst: 1, Hops: 3, Bits: 2e9, BottleneckBps: 1e11},
	}
	want := make([]float64, len(reqs))
	for i, r := range reqs {
		v, err := rec.Call(r)
		if err != nil {
			t.Fatal(err)
		}
		// A duplicate call records once but still answers.
		if v2, _ := rec.Call(r); v2 != v {
			t.Fatalf("duplicate call changed value: %v vs %v", v2, v)
		}
		want[i] = v
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := OpenCassette(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.torn || rp.Len() != len(reqs) {
		t.Fatalf("cassette torn=%v len=%d, want clean len %d", rp.torn, rp.Len(), len(reqs))
	}
	for i, r := range reqs {
		v, err := rp.Call(r)
		if err != nil {
			t.Fatal(err)
		}
		if v != want[i] {
			t.Errorf("replayed value %v, want bit-identical %v", v, want[i])
		}
	}
	if _, err := rp.Call(&Request{T: TypeLatency, Src: 99, Dst: 98, Hops: 1, Bits: 1, BottleneckBps: 1}); err == nil {
		t.Error("cassette miss did not fail closed")
	}
}

func TestOpenConfigValidation(t *testing.T) {
	if _, err := Open(Config{}, nil); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Open(Config{Command: "x", Replay: "y"}, nil); err == nil {
		t.Error("command+replay accepted")
	}
	if _, err := Open(Config{Replay: filepath.Join(t.TempDir(), "missing.jsonl")}, nil); err == nil {
		t.Error("missing cassette accepted")
	}
}

// scenarioBytes runs one scenario through a fresh engine attached to the
// given co-sim models (nil: in-process) and returns the rendered table
// bytes.
func scenarioBytes(t *testing.T, models *netsim.Models, scenario string, params map[string]float64) []byte {
	t.Helper()
	eng := engine.New(engine.Options{Models: models})
	res, _, err := eng.Do(context.Background(), engine.Request{
		Op: engine.OpScenario, Scenario: scenario, Params: params,
	})
	if err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	b, err := json.Marshal(res.Table)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// liveBinding wires a recorder around an in-process echo model.
func liveBinding(t *testing.T, cassette string, perturb float64) *Binding {
	t.Helper()
	c := pipeClient(t, Echo{Perturb: perturb}, Options{})
	rec, err := NewRecorder(c, cassette)
	if err != nil {
		t.Fatal(err)
	}
	return Bind(rec, nil)
}

// The acceptance criterion, in-process: for both row-structured
// scenarios, output under a live echo model is byte-identical to the
// in-process models, and a cassette replay of the recorded run is
// byte-identical again — with zero fallbacks and no subprocess. Run
// under -race in CI, this also exercises the locked client under the
// engine's concurrent rows.
func TestRecordReplayByteStability(t *testing.T) {
	cases := []struct {
		scenario string
		params   map[string]float64
	}{
		{"topologies", map[string]float64{"hosts": 12, "iters": 1, "seed": 5}},
		{"faults", map[string]float64{"radix": 4, "iters": 2, "seed": 5}},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			plain := scenarioBytes(t, nil, tc.scenario, tc.params)

			cassette := filepath.Join(t.TempDir(), "run.jsonl")
			live := liveBinding(t, cassette, 0)
			liveOut := scenarioBytes(t, live.Models(), tc.scenario, tc.params)
			if err := live.Close(); err != nil {
				t.Fatalf("close recorder: %v", err)
			}
			if !bytes.Equal(plain, liveOut) {
				t.Fatalf("live echo output differs from in-process models")
			}
			if live.latency.calls.Value() == 0 {
				t.Fatal("live run made no model calls")
			}

			rp, err := OpenCassette(cassette)
			if err != nil {
				t.Fatal(err)
			}
			replay := Bind(rp, nil)
			replayOut := scenarioBytes(t, replay.Models(), tc.scenario, tc.params)
			if !bytes.Equal(plain, replayOut) {
				t.Fatalf("cassette replay output differs from recorded run")
			}
			if lat, pow := replay.latency.fallbacks.Value(), replay.power.fallbacks.Value(); lat != 0 || pow != 0 {
				t.Fatalf("replay fell back %d/%d times, want full cassette coverage", lat, pow)
			}
		})
	}
}

// A torn cassette (crashed recorder) fails closed: the missing calls
// fall back to the in-process model — counted — and because the
// recorded model was the pure echo, the output is still byte-identical.
func TestTornCassetteFailsClosed(t *testing.T) {
	params := map[string]float64{"hosts": 12, "iters": 1, "seed": 5}
	plain := scenarioBytes(t, nil, "topologies", params)

	cassette := filepath.Join(t.TempDir(), "run.jsonl")
	live := liveBinding(t, cassette, 0)
	scenarioBytes(t, live.Models(), "topologies", params)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: drop the last 40% of the file mid-line.
	raw, err := os.ReadFile(cassette)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cassette, raw[:len(raw)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}

	rp, err := OpenCassette(cassette)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.torn {
		t.Fatal("truncated cassette not reported torn")
	}
	replay := Bind(rp, nil)
	tornOut := scenarioBytes(t, replay.Models(), "topologies", params)
	if !bytes.Equal(plain, tornOut) {
		t.Fatal("torn-cassette run not byte-identical to in-process models")
	}
	lat, pow := replay.latency.fallbacks.Value(), replay.power.fallbacks.Value()
	if lat+pow == 0 {
		t.Fatal("torn cassette produced no counted fallbacks")
	}
	t.Logf("torn cassette: %d latency + %d power fallbacks, output byte-identical", lat, pow)
}

// Guard against accidental canonical-key drift: the cassette key must
// not contain the per-call id.
func TestCanonicalOmitsID(t *testing.T) {
	r := &Request{T: TypeLatency, ID: 42, Src: 1, Dst: 2, Hops: 3, Bits: 4, BottleneckBps: 5}
	b, err := r.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "\"id\"") {
		t.Errorf("canonical bytes contain the call id: %s", b)
	}
	r2 := *r
	r2.ID = 7
	b2, _ := r2.Canonical()
	if !bytes.Equal(b, b2) {
		t.Errorf("canonical bytes differ across ids: %s vs %s", b, b2)
	}
	if r.ID != 42 {
		t.Errorf("Canonical mutated the request id to %d", r.ID)
	}
}
