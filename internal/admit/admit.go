// Package admit is the serving path's admission-control layer: priority
// classes and per-tenant token-bucket quotas, applied before a request
// reaches the engine's bounded queue. The engine's shed machinery stays
// the sole authority for normal-priority overload — this layer only
// (a) rejects tenants that exceed their row-rate quota, with a precise
// Retry-After derived from the bucket's refill rate, and (b) sheds
// low-priority work early, while the queue still has room for
// higher-priority requests. High priority may overdraw its bucket by one
// burst before quota rejection kicks in, so operator traffic survives a
// tenant's own flood. Quotas are disabled unless a positive rate is
// configured, so the default serving behavior is unchanged.
package admit

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"netpowerprop/internal/obs"
)

// Priority is a request's admission class.
type Priority int8

const (
	// Low is best-effort work: shed early under load, double token cost.
	Low Priority = iota - 1
	// Normal is the default class: quota-checked, engine-shed only.
	Normal
	// High is operator traffic: may overdraw its quota by one burst.
	High
)

// ParsePriority maps the X-Priority header to a class. Empty selects
// Normal; ok is false for unknown values (the caller should 400).
func ParsePriority(s string) (p Priority, ok bool) {
	switch s {
	case "", "normal":
		return Normal, true
	case "low":
		return Low, true
	case "high":
		return High, true
	}
	return Normal, false
}

// String renders the class as its wire name.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case High:
		return "high"
	}
	return "normal"
}

// cost is the tokens one row costs for this class: low-priority rows pay
// double, so best-effort bulk traffic drains a tenant's quota faster than
// interactive traffic.
func (p Priority) cost() float64 {
	if p == Low {
		return 2
	}
	return 1
}

// Reasons a request can be turned away.
const (
	// ReasonQuota: the tenant's token bucket cannot cover the rows; the
	// HTTP layer maps it to 429.
	ReasonQuota = "quota"
	// ReasonLoad: low-priority work shed early under queue pressure; the
	// HTTP layer maps it to 503, like an engine shed.
	ReasonLoad = "load"
	// ReasonTooLarge: the request's token cost exceeds the bucket's
	// capacity, so no amount of waiting would ever admit it — retrying
	// is futile and the client must split the request. The HTTP layer
	// maps it to 413 with no Retry-After.
	ReasonTooLarge = "too-large"
)

// Decision is the outcome of one admission check.
type Decision struct {
	// OK: the request may proceed to the engine.
	OK bool
	// Reason is ReasonQuota or ReasonLoad when !OK.
	Reason string
	// RetryAfter is the suggested client wait when !OK: for quota
	// rejections, the time until the bucket can cover the request.
	RetryAfter time.Duration
}

// Options configures a Controller.
type Options struct {
	// RatePerSec is each tenant's sustained row budget per second.
	// Zero or negative disables quotas entirely.
	RatePerSec float64
	// Burst is the bucket capacity in tokens (default 2×RatePerSec,
	// minimum 1): the largest instantaneous row spend.
	Burst float64
	// Capacity is the engine's admission bound (workers+maxqueue); low
	// priority is shed once pending reaches half of it. Zero disables the
	// early shed.
	Capacity int
	// Pending probes the live engine queue depth (nil disables the
	// low-priority early shed).
	Pending func() int64
	// P99 probes the observed serving latency p99 in seconds (typically
	// an obs.Histogram.Quantile closure over the request-duration
	// histogram). Together with TargetP99 it makes the low-priority shed
	// threshold adaptive — see adaptive.go. Nil keeps the fixed
	// half-capacity bound.
	P99 func() float64
	// TargetP99 is the latency objective the adaptive threshold defends.
	// Zero disables adaptation.
	TargetP99 time.Duration
	// Now injects time for tests; defaults to time.Now.
	Now func() time.Time
	// Registry receives netpowerprop_admit_* metrics; nil keeps them
	// unregistered.
	Registry *obs.Registry
}

// maxTenants bounds tracked buckets; the least recently seen bucket is
// evicted at the bound, which at worst refunds an idle tenant its burst.
const maxTenants = 4096

// bucket is one tenant's token bucket, refilled lazily on access.
type bucket struct {
	tokens float64
	last   time.Time
}

// Controller applies priority and quota policy. The zero value is not
// usable; build one with New.
type Controller struct {
	rate     float64
	burst    float64
	capacity int
	pending  func() int64
	now      func() time.Time
	// maxTenants is the package constant; tests in this package lower it
	// to reach eviction with a few tenants.
	maxTenants int

	// Adaptive low-priority shed state (see adaptive.go).
	p99         func() float64
	targetP99   time.Duration
	threshold   atomic.Int64
	lastAdapt   atomic.Int64
	adaptations *obs.Counter

	mu      sync.Mutex
	buckets map[string]*bucket

	allowed   [3]*obs.Counter // indexed by class (Low+1)
	quotaRej  [3]*obs.Counter
	loadShed  *obs.Counter
	tooLarge  *obs.Counter
	refunded  *obs.Counter
	evictions *obs.Counter
}

// New builds a controller.
func New(opts Options) *Controller {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Burst <= 0 {
		opts.Burst = 2 * opts.RatePerSec
	}
	if opts.Burst < 1 {
		opts.Burst = 1
	}
	c := &Controller{
		rate:       opts.RatePerSec,
		burst:      opts.Burst,
		capacity:   opts.Capacity,
		pending:    opts.Pending,
		maxTenants: maxTenants,
		now:        opts.Now,
		p99:        opts.P99,
		targetP99:  opts.TargetP99,
		buckets:    make(map[string]*bucket),
	}
	// The adaptive walk starts from the fixed bound and moves only on
	// probe evidence; lastAdapt starts at the construction instant so the
	// first step waits a full interval of real observations.
	c.threshold.Store(int64((opts.Capacity + 1) / 2))
	c.lastAdapt.Store(c.now().UnixNano())
	c.instrument(opts.Registry)
	return c
}

// Admit decides whether tenant may spend rows at the given priority.
// rows is the request's true row count — a 100-row batch spends 100
// tokens, not 1 — so quotas meter work, not HTTP calls.
func (c *Controller) Admit(tenant string, pri Priority, rows int) Decision {
	if rows < 1 {
		rows = 1
	}
	// Low priority yields while the queue still has headroom reserved
	// for normal and high traffic, which only the engine's own bound
	// sheds. The bound is fixed at half capacity, or walks with observed
	// p99 latency when a probe is configured (adaptive.go).
	if pri == Low && c.capacity > 0 && c.pending != nil {
		if p := c.pending(); p >= c.shedThreshold() {
			c.loadShed.Inc()
			return Decision{Reason: ReasonLoad, RetryAfter: time.Second}
		}
	}
	if c.rate <= 0 {
		c.allowed[pri+1].Inc()
		return Decision{OK: true}
	}

	cost := float64(rows) * pri.cost()
	// High priority may overdraw to -burst: its effective floor is one
	// burst below empty.
	floor := 0.0
	if pri == High {
		floor = -c.burst
	}
	// A cost no full bucket could ever cover is rejected permanently:
	// tokens refill only to burst, so a finite Retry-After here would
	// have the client retrying forever, always getting 429.
	if cost > c.burst-floor {
		c.tooLarge.Inc()
		return Decision{Reason: ReasonTooLarge}
	}

	now := c.now()
	c.mu.Lock()
	b := c.buckets[tenant]
	if b == nil {
		c.evict()
		b = &bucket{tokens: c.burst, last: now}
		c.buckets[tenant] = b
	} else {
		b.tokens = math.Min(c.burst, b.tokens+c.rate*now.Sub(b.last).Seconds())
		b.last = now
	}
	if b.tokens-cost >= floor {
		b.tokens -= cost
		c.mu.Unlock()
		c.allowed[pri+1].Inc()
		return Decision{OK: true}
	}
	deficit := cost - (b.tokens - floor)
	c.mu.Unlock()
	c.quotaRej[pri+1].Inc()
	return Decision{
		Reason:     ReasonQuota,
		RetryAfter: time.Duration(deficit / c.rate * float64(time.Second)),
	}
}

// Refund returns rows' worth of tokens to the tenant's bucket, capped at
// burst. The serve layer calls it for batch rows the engine shed after
// quota admission: the work was never done, so a retrying client should
// not pay for it twice. No-op when quotas are disabled or the bucket has
// since been evicted (the eviction already granted a full refill).
func (c *Controller) Refund(tenant string, pri Priority, rows int) {
	if c.rate <= 0 || rows < 1 {
		return
	}
	c.mu.Lock()
	if b := c.buckets[tenant]; b != nil {
		b.tokens = math.Min(c.burst, b.tokens+float64(rows)*pri.cost())
		c.refunded.Add(uint64(rows))
	}
	c.mu.Unlock()
}

// evict drops the least recently seen bucket once the tenant table is
// full. Callers hold c.mu.
func (c *Controller) evict() {
	if len(c.buckets) < c.maxTenants {
		return
	}
	var victim string
	var oldest time.Time
	for t, b := range c.buckets {
		if victim == "" || b.last.Before(oldest) {
			victim, oldest = t, b.last
		}
	}
	delete(c.buckets, victim)
	c.evictions.Inc()
}

// Tenants is the number of tracked buckets.
func (c *Controller) Tenants() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buckets)
}

// instrument creates the controller's metrics under netpowerprop_admit_*.
// A nil registry yields handles that count but are not rendered.
func (c *Controller) instrument(reg *obs.Registry) {
	for _, pri := range []Priority{Low, Normal, High} {
		c.allowed[pri+1] = reg.Counter("netpowerprop_admit_allowed_total",
			"Requests admitted past priority/quota checks.", "class", pri.String())
		c.quotaRej[pri+1] = reg.Counter("netpowerprop_admit_quota_rejected_total",
			"Requests rejected by a tenant's token-bucket quota.", "class", pri.String())
	}
	c.loadShed = reg.Counter("netpowerprop_admit_load_shed_total",
		"Low-priority requests shed early under queue pressure.")
	c.tooLarge = reg.Counter("netpowerprop_admit_too_large_total",
		"Requests rejected permanently: cost exceeds bucket capacity.")
	c.refunded = reg.Counter("netpowerprop_admit_refunded_rows_total",
		"Rows refunded to tenant buckets after an engine shed.")
	c.evictions = reg.Counter("netpowerprop_admit_tenant_evictions_total",
		"Tenant buckets evicted at the table bound.")
	reg.GaugeFunc("netpowerprop_admit_tenants",
		"Tenant buckets currently tracked.",
		func() float64 { return float64(c.Tenants()) })
	reg.GaugeFunc("netpowerprop_admit_shed_threshold",
		"Current low-priority early-shed bound on engine pending count.",
		func() float64 { return float64(c.ShedThreshold()) })
	c.adaptations = reg.Counter("netpowerprop_admit_shed_adaptations_total",
		"Moves of the adaptive low-priority shed threshold.")
}
