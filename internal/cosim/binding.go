package cosim

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
	"netpowerprop/internal/units"
)

// kindCounters is one request kind's call accounting.
type kindCounters struct {
	calls     atomic.Uint64
	errors    atomic.Uint64
	fallbacks atomic.Uint64
}

// Binding bridges a Provider to netsim's Models hooks and owns the
// netpowerprop_cosim_* accounting: calls, model/transport errors, and
// fail-closed fallbacks per request kind, plus a round-trip latency
// histogram. A hook error makes netsim use its in-process formula for
// that call; the binding counts that as one fallback.
type Binding struct {
	p          Provider
	model      string
	hasLatency bool
	hasPower   bool

	latency kindCounters
	power   kindCounters
	rtt     atomic.Pointer[obs.Histogram]
}

// Bind wraps a provider. Replay providers get both capabilities; live
// clients contribute what their handshake declared.
func Bind(p Provider) *Binding {
	b := &Binding{p: p, model: "cassette", hasLatency: true, hasPower: true}
	if c, ok := p.(*Client); ok {
		b.model = c.Model()
		b.hasLatency = c.Has(CapLatency)
		b.hasPower = c.Has(CapPower)
	}
	if r, ok := p.(*Recorder); ok {
		if c, ok := r.p.(*Client); ok {
			b.model = c.Model()
			b.hasLatency = c.Has(CapLatency)
			b.hasPower = c.Has(CapPower)
		}
	}
	return b
}

// Model names the bound model ("cassette" for replay).
func (b *Binding) Model() string { return b.model }

// Models builds the netsim hooks for the capabilities the model
// declared. The returned value is safe to share across Sims and
// goroutines; the underlying provider serializes calls.
func (b *Binding) Models() *netsim.Models {
	m := &netsim.Models{}
	if b.hasLatency {
		m.Latency = func(req netsim.LatencyRequest) (units.Seconds, error) {
			v, err := b.call(&b.latency, &Request{
				T:             TypeLatency,
				Src:           req.Src,
				Dst:           req.Dst,
				Hops:          req.Hops,
				Bits:          req.Bits,
				BottleneckBps: req.BottleneckBps,
			})
			return units.Seconds(v), err
		}
	}
	if b.hasPower {
		m.Power = func(req netsim.PowerRequest) (units.Energy, error) {
			segs := make([][2]float64, len(req.Trace))
			for i, s := range req.Trace {
				segs[i] = [2]float64{float64(s.Duration()), float64(s.Rate)}
			}
			v, err := b.call(&b.power, &Request{
				T:           TypePower,
				Device:      req.Device,
				Node:        req.ID,
				MaxW:        float64(req.Max),
				Prop:        req.Proportionality,
				Law:         LawString(req.Law),
				CapacityBps: float64(req.Capacity),
				Segments:    segs,
			})
			return units.Energy(v), err
		}
	}
	return m
}

func (b *Binding) call(k *kindCounters, req *Request) (float64, error) {
	k.calls.Add(1)
	start := time.Now()
	v, err := b.p.Call(req)
	if h := b.rtt.Load(); h != nil {
		h.ObserveDuration(time.Since(start))
	}
	if err != nil {
		k.errors.Add(1)
		k.fallbacks.Add(1)
		return 0, err
	}
	return v, nil
}

// Instrument registers the netpowerprop_cosim_* metrics on reg.
func (b *Binding) Instrument(reg *obs.Registry) {
	for _, kind := range []struct {
		name string
		k    *kindCounters
	}{{"latency", &b.latency}, {"power", &b.power}} {
		k := kind.k
		reg.CounterFunc("netpowerprop_cosim_calls_total",
			"External co-sim model calls by request kind.",
			func() float64 { return float64(k.calls.Load()) }, "kind", kind.name)
		reg.CounterFunc("netpowerprop_cosim_errors_total",
			"Co-sim calls that returned a model or transport error.",
			func() float64 { return float64(k.errors.Load()) }, "kind", kind.name)
		reg.CounterFunc("netpowerprop_cosim_fallbacks_total",
			"Co-sim calls answered by the in-process fallback model.",
			func() float64 { return float64(k.fallbacks.Load()) }, "kind", kind.name)
	}
	b.rtt.Store(reg.Histogram("netpowerprop_cosim_rtt_seconds",
		"Round-trip latency of external co-sim model calls.",
		obs.DefLatencyBuckets))
}

// Close shuts down the provider (and its subprocess, when live).
func (b *Binding) Close() error { return b.p.Close() }

// Config assembles a provider stack from CLI flags.
type Config struct {
	// Command is the external model command line, split on whitespace
	// (e.g. "./cosim-stub -perturb 0.05"). Ignored when Replay is set.
	Command string
	// Record, when set, captures every response into this cassette.
	Record string
	// Replay, when set, serves responses from this cassette with no
	// subprocess. Mutually exclusive with Command/Record.
	Replay string
	// Timeout bounds each model call (default 2s).
	Timeout time.Duration
	// Stderr receives the subprocess's stderr (default os.Stderr).
	Stderr io.Writer
}

// Enabled reports whether the config asks for co-simulation at all.
func (c Config) Enabled() bool { return c.Command != "" || c.Replay != "" }

// Open builds the bound provider stack: a cassette replayer, or a
// dialed subprocess optionally wrapped in a recorder.
func Open(cfg Config) (*Binding, error) {
	if cfg.Replay != "" {
		if cfg.Command != "" || cfg.Record != "" {
			return nil, fmt.Errorf("cosim: -cosim-replay is exclusive with -cosim/-cosim-record")
		}
		rp, err := OpenCassette(cfg.Replay)
		if err != nil {
			return nil, err
		}
		return Bind(rp), nil
	}
	if cfg.Command == "" {
		return nil, fmt.Errorf("cosim: no model command or cassette configured")
	}
	argv := strings.Fields(cfg.Command)
	c, err := Dial(argv, Options{Timeout: cfg.Timeout, Stderr: cfg.Stderr})
	if err != nil {
		return nil, err
	}
	var p Provider = c
	if cfg.Record != "" {
		rec, err := NewRecorder(c, cfg.Record)
		if err != nil {
			c.Close()
			return nil, err
		}
		p = rec
	}
	return Bind(p), nil
}
