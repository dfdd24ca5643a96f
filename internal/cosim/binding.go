package cosim

import (
	"fmt"
	"strings"
	"time"

	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
	"netpowerprop/internal/units"
)

// kindCounters is one request kind's call accounting.
type kindCounters struct {
	calls, errors, fallbacks *obs.Counter
}

// newKindCounters creates one request kind's netpowerprop_cosim_* series.
func newKindCounters(reg *obs.Registry, kind string) kindCounters {
	return kindCounters{
		calls: reg.Counter("netpowerprop_cosim_calls_total",
			"External co-sim model calls by request kind.", "kind", kind),
		errors: reg.Counter("netpowerprop_cosim_errors_total",
			"Co-sim calls that returned a model or transport error.", "kind", kind),
		fallbacks: reg.Counter("netpowerprop_cosim_fallbacks_total",
			"Co-sim calls answered by the in-process fallback model.", "kind", kind),
	}
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
	rtt     *obs.Histogram
}

// Bind wraps a provider and registers its netpowerprop_cosim_* metrics on
// reg (nil keeps them unregistered). Replay providers get both
// capabilities; live clients contribute what their handshake declared.
func Bind(p Provider, reg *obs.Registry) *Binding {
	b := &Binding{p: p, model: "cassette", hasLatency: true, hasPower: true,
		latency: newKindCounters(reg, "latency"),
		power:   newKindCounters(reg, "power"),
		rtt: reg.Histogram("netpowerprop_cosim_rtt_seconds",
			"Round-trip latency of external co-sim model calls.",
			obs.DefLatencyBuckets),
	}
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
	k.calls.Inc()
	start := time.Now()
	v, err := b.p.Call(req)
	b.rtt.ObserveDuration(time.Since(start))
	if err != nil {
		k.errors.Inc()
		k.fallbacks.Inc()
		return 0, err
	}
	return v, nil
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
}

// Enabled reports whether the config asks for co-simulation at all.
func (c Config) Enabled() bool { return c.Command != "" || c.Replay != "" }

// Open builds the bound provider stack: a cassette replayer, or a
// dialed subprocess optionally wrapped in a recorder. Its metrics go to
// reg, as with Bind.
func Open(cfg Config, reg *obs.Registry) (*Binding, error) {
	if cfg.Replay != "" {
		if cfg.Command != "" || cfg.Record != "" {
			return nil, fmt.Errorf("cosim: -cosim-replay is exclusive with -cosim/-cosim-record")
		}
		rp, err := OpenCassette(cfg.Replay)
		if err != nil {
			return nil, err
		}
		return Bind(rp, reg), nil
	}
	if cfg.Command == "" {
		return nil, fmt.Errorf("cosim: no model command or cassette configured")
	}
	argv := strings.Fields(cfg.Command)
	c, err := Dial(argv, Options{Timeout: cfg.Timeout})
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
	return Bind(p, reg), nil
}
