package cluster

import (
	"sort"
	"sync"
	"time"

	"netpowerprop/internal/obs"
)

// BreakerState is one peer's circuit position.
type BreakerState string

const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the peer tripped; forwards are rejected without a
	// network attempt until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: cooldown elapsed; exactly one probe request may
	// pass. Success re-closes the circuit, failure re-opens it.
	BreakerHalfOpen BreakerState = "half-open"
)

// Default breaker tuning: trip after 5 consecutive typed failures, probe
// again after 2s.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
)

// BreakerOptions configures a Breaker.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens a peer's
	// circuit (DefaultBreakerThreshold when <= 0).
	Threshold int
	// Cooldown is how long an open circuit rejects before allowing a
	// half-open probe (DefaultBreakerCooldown when <= 0).
	Cooldown time.Duration
	// Now injects the clock so breaker timing is deterministic in tests;
	// defaults to time.Now.
	Now func() time.Time
	// Registry receives the netpowerprop_breaker_* metrics; nil keeps
	// them unregistered.
	Registry *obs.Registry
}

// Breaker is a per-peer circuit breaker for the forward/hedge path.
// A peer that fails Threshold consecutive times is cut off for
// Cooldown; after that a single half-open probe decides whether the
// circuit re-closes. All transitions are driven by the injected clock,
// never a background goroutine, so behavior is reproducible.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu    sync.Mutex
	peers map[string]*breakerEntry

	// Lifetime totals across peers.
	opens, rejects, probes, recloses *obs.Counter
}

type breakerEntry struct {
	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // half-open probe currently in flight
	opens    uint64
}

// NewBreaker builds a Breaker with defaults filled in.
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultBreakerThreshold
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = DefaultBreakerCooldown
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	b := &Breaker{
		threshold: opts.Threshold,
		cooldown:  opts.Cooldown,
		now:       opts.Now,
		peers:     make(map[string]*breakerEntry),
		opens: opts.Registry.Counter("netpowerprop_breaker_opens_total",
			"Circuit-breaker transitions to open (per-peer trips summed)."),
		rejects: opts.Registry.Counter("netpowerprop_breaker_rejects_total",
			"Forward attempts rejected without a network call by an open circuit."),
		probes: opts.Registry.Counter("netpowerprop_breaker_probes_total",
			"Half-open probe requests admitted."),
		recloses: opts.Registry.Counter("netpowerprop_breaker_recloses_total",
			"Circuits re-closed after a successful probe."),
	}
	opts.Registry.GaugeFunc("netpowerprop_breaker_open",
		"Peers whose forward circuit is currently open or half-open.",
		func() float64 { return float64(b.OpenCount()) })
	return b
}

func (b *Breaker) entry(peer string) *breakerEntry {
	e := b.peers[peer]
	if e == nil {
		e = &breakerEntry{state: BreakerClosed}
		b.peers[peer] = e
	}
	return e
}

// Allow reports whether a request to peer may proceed. While open it
// returns false (counted as a reject) until the cooldown elapses, then
// admits exactly one half-open probe at a time. probe is true when the
// admitted call IS that probe: the caller then owes the breaker exactly
// one resolution — Success, Failure, or CancelProbe — or the peer's
// circuit wedges half-open and rejects forever.
func (b *Breaker) Allow(peer string) (admit, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(peer)
	switch e.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(e.openedAt) < b.cooldown {
			b.rejects.Inc()
			return false, false
		}
		e.state = BreakerHalfOpen
		e.probing = true
		b.probes.Inc()
		return true, true
	default: // half-open
		if e.probing {
			b.rejects.Inc()
			return false, false
		}
		e.probing = true
		b.probes.Inc()
		return true, true
	}
}

// Success records a completed request: the circuit re-closes (from any
// state) and the failure streak resets.
func (b *Breaker) Success(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(peer)
	if e.state != BreakerClosed {
		b.recloses.Inc()
	}
	e.state = BreakerClosed
	e.fails = 0
	e.probing = false
}

// Failure records a typed forward failure. A half-open probe failing
// re-opens immediately; a closed circuit opens once the consecutive
// streak reaches the threshold.
func (b *Breaker) Failure(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(peer)
	switch e.state {
	case BreakerHalfOpen:
		e.probing = false
		b.open(e)
	case BreakerClosed:
		e.fails++
		if e.fails >= b.threshold {
			b.open(e)
		}
	}
}

// CancelProbe releases peer's half-open probe slot without recording a
// verdict. For paths that abandon an admitted probe for reasons that say
// nothing about the peer's health — the parent request was canceled, or
// the probe lost a hedge race — so the circuit stays half-open and the
// next Allow may probe again instead of rejecting forever.
func (b *Breaker) CancelProbe(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.peers[peer]; e != nil {
		e.probing = false
	}
}

// open transitions an entry to open. Callers hold b.mu.
func (b *Breaker) open(e *breakerEntry) {
	e.state = BreakerOpen
	e.openedAt = b.now()
	e.fails = 0
	e.opens++
	b.opens.Inc()
}

// OpenCount is how many peers are currently not closed.
func (b *Breaker) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	nOpen := 0
	for _, e := range b.peers {
		if e.state != BreakerClosed {
			nOpen++
		}
	}
	return nOpen
}

// BreakerStatus is one peer's circuit in /v1/cluster. Probing and
// OpenAgeMS make a leaked probe observable: a peer stuck half-open with
// probing=true and a growing age means an admitted probe never resolved.
type BreakerStatus struct {
	Peer      string       `json:"peer"`
	State     BreakerState `json:"state"`
	Fails     int          `json:"consecutive_failures"`
	Opens     uint64       `json:"opens"`
	Probing   bool         `json:"probing,omitempty"`
	OpenAgeMS int64        `json:"open_age_ms,omitempty"`
}

// Snapshot lists every tracked peer's circuit, sorted by address. State
// is the same derived view State reports: an open circuit past its
// cooldown shows half-open.
func (b *Breaker) Snapshot() []BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	out := make([]BreakerStatus, 0, len(b.peers))
	for peer, e := range b.peers {
		st := e.state
		if st == BreakerOpen && now.Sub(e.openedAt) >= b.cooldown {
			st = BreakerHalfOpen
		}
		s := BreakerStatus{Peer: peer, State: st, Fails: e.fails, Opens: e.opens, Probing: e.probing}
		if st != BreakerClosed {
			s.OpenAgeMS = now.Sub(e.openedAt).Milliseconds()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
