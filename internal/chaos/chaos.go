// Package chaos is a seeded, deterministic failpoint framework.
//
// Code under test declares named injection sites at its cross-boundary
// I/O points (disk writes, inter-replica HTTP, gossip delivery) and
// evaluates them against the *Plan it was handed. A nil plan — the
// default — is disarmed: every site is one nil check that returns the
// zero Fault, with no allocation. A plan (parsed from a compact spec
// string, see Parse) makes matching sites inject typed faults — error
// returns, short writes, fsync failures, ENOSPC, added latency, drops,
// one-way partitions — according to per-rule probability, count caps,
// and epoch windows. The package holds no mutable state: two nodes in
// one process can run different plans, or none.
//
// Every probabilistic decision is a pure hash of (plan seed, rule,
// per-rule hit counter), so a fault schedule is fully reproducible
// from its seed: the same plan against the same per-site evaluation
// sequence injects the same faults in the same order.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind names a fault type a rule can inject.
type Kind string

const (
	// KindError makes the site return ErrInjected.
	KindError Kind = "error"
	// KindShortWrite makes a file-write site persist only a prefix of
	// the buffer before failing (a torn write).
	KindShortWrite Kind = "shortwrite"
	// KindFsyncFail makes an fsync site fail after the data was
	// written: the bytes may or may not be durable.
	KindFsyncFail Kind = "fsyncfail"
	// KindENOSPC makes the site fail with a wrapped syscall.ENOSPC.
	KindENOSPC Kind = "enospc"
	// KindLatency delays the site by the rule's delay.
	KindLatency Kind = "latency"
	// KindDrop makes a message site lose the message.
	KindDrop Kind = "drop"
	// KindPartition is KindDrop restricted to one peer: combined with
	// the rule's peer matcher it models a one-way partition (traffic
	// FROM that peer into this node is lost; the reverse direction is
	// untouched).
	KindPartition Kind = "partition"
)

// Injected faults carry typed, recognizable errors so tests and
// callers can tell a chaos fault from an organic failure.
var (
	ErrInjected = errors.New("chaos: injected fault")
	// ErrInjectedENOSPC wraps syscall.ENOSPC so errors.Is sees both.
	ErrInjectedENOSPC = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
)

// Injection sites. Each constant names one cross-boundary point; the
// Registry below records its layer, the fault kinds it honors, and a
// one-line description (surfaced in DESIGN.md's site table).
const (
	SiteJournalWrite  = "jobs.journal.write"
	SiteJournalFsync  = "jobs.journal.fsync"
	SiteLeaseWrite    = "jobs.lease.write"
	SiteForwardSend   = "cluster.forward.send"
	SiteForwardRTT    = "cluster.forward.rtt"
	SiteGossipSend    = "cluster.gossip.send"
	SiteGossipDeliver = "cluster.gossip.deliver"
	SiteResponseWrite = "serve.response.write"
)

// SiteInfo describes one registered injection site.
type SiteInfo struct {
	Name  string
	Layer string
	Kinds []Kind
	Desc  string
}

// Registry lists every known site. Parse rejects unknown sites and
// kinds a site does not honor, so a typo in a spec fails fast instead
// of silently injecting nothing.
var Registry = []SiteInfo{
	{SiteJournalWrite, "jobs", []Kind{KindError, KindShortWrite, KindENOSPC}, "journal JSONL record write"},
	{SiteJournalFsync, "jobs", []Kind{KindFsyncFail}, "journal fsync after append"},
	{SiteLeaseWrite, "jobs", []Kind{KindError, KindENOSPC}, "owner lease file write"},
	{SiteForwardSend, "cluster", []Kind{KindError, KindDrop, KindPartition}, "forward/hedge HTTP request to a peer"},
	{SiteForwardRTT, "cluster", []Kind{KindLatency}, "added round-trip latency on a forward"},
	{SiteGossipSend, "cluster", []Kind{KindDrop, KindError, KindLatency}, "outbound gossip exchange request"},
	{SiteGossipDeliver, "cluster", []Kind{KindDrop, KindPartition}, "inbound gossip digest (request or reply)"},
	{SiteResponseWrite, "serve", []Kind{KindError, KindLatency}, "HTTP response body write to the client"},
}

func siteInfo(name string) *SiteInfo {
	for i := range Registry {
		if Registry[i].Name == name {
			return &Registry[i]
		}
	}
	return nil
}

func (s *SiteInfo) honors(k Kind) bool {
	for _, h := range s.Kinds {
		if h == k {
			return true
		}
	}
	return false
}

// Fault is the outcome of evaluating a site. The zero value means
// "no fault"; it is returned by value so the disarmed path allocates
// nothing.
type Fault struct {
	Kind  Kind
	Delay time.Duration // KindLatency
	N     int           // KindShortWrite: bytes persisted before the failure
	Err   error
}

// Active reports whether a fault was injected.
func (f Fault) Active() bool { return f.Kind != "" }

// Rule arms one fault on one site.
type Rule struct {
	Site  string
	Kind  Kind
	Prob  float64       // injection probability per eligible hit; 0 or 1 → always
	Count int           // max injections; 0 → unlimited
	After int           // skip the first After matching hits (epoch window start)
	Until int           // stop matching at hit Until (exclusive); 0 → no end
	Delay time.Duration // KindLatency
	Peer  string        // match only this peer; "" → any
}

type armedRule struct {
	Rule
	idx      int
	hits     atomic.Uint64
	injected atomic.Uint64
}

// Plan is an armed set of rules plus the seed all probabilistic
// decisions derive from. It also counts, per site, how often the site
// was evaluated and how many faults it injected. A nil *Plan is
// disarmed: every method is safe to call on it and injects nothing.
type Plan struct {
	Seed  uint64
	rules []*armedRule
	sites map[string]*site // every Registry site
}

// site is one registered site's rules (in declaration order) and its
// counters.
type site struct {
	rules             []*armedRule
	evals, injections atomic.Uint64
}

// kind masks let each helper consume only rules it can honor, so a
// latency rule is never burned by a caller asking for errors.
type kindMask uint8

const (
	maskError kindMask = 1 << iota
	maskShortWrite
	maskFsyncFail
	maskENOSPC
	maskLatency
	maskDrop
	maskPartition
)

func maskOf(k Kind) kindMask {
	switch k {
	case KindError:
		return maskError
	case KindShortWrite:
		return maskShortWrite
	case KindFsyncFail:
		return maskFsyncFail
	case KindENOSPC:
		return maskENOSPC
	case KindLatency:
		return maskLatency
	case KindDrop:
		return maskDrop
	case KindPartition:
		return maskPartition
	}
	return 0
}

// eval counts one evaluation of site, then walks its rules in
// declaration order and injects the first one that matches peer, the
// mask, its window, its count cap, and its seeded coin flip.
func (p *Plan) eval(name, peer string, mask kindMask) Fault {
	if p == nil {
		return Fault{}
	}
	s := p.sites[name]
	s.evals.Add(1)
	for _, r := range s.rules {
		if maskOf(r.Kind)&mask == 0 {
			continue
		}
		if r.Peer != "" && r.Peer != peer {
			continue
		}
		h := r.hits.Add(1) - 1 // index of this hit in the rule's own sequence
		if h < uint64(r.After) {
			continue
		}
		if r.Until > 0 && h >= uint64(r.Until) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && unitHash(p.Seed, uint64(r.idx), h) >= r.Prob {
			continue
		}
		// Count cap, exact under concurrency.
		for {
			c := r.injected.Load()
			if r.Count > 0 && c >= uint64(r.Count) {
				break
			}
			if r.injected.CompareAndSwap(c, c+1) {
				s.injections.Add(1)
				return r.fault()
			}
		}
	}
	return Fault{}
}

func (r *armedRule) fault() Fault {
	switch r.Kind {
	case KindError, KindDrop, KindPartition, KindFsyncFail:
		return Fault{Kind: r.Kind, Err: fmt.Errorf("%w: %s %s", ErrInjected, r.Site, r.Kind)}
	case KindENOSPC:
		return Fault{Kind: r.Kind, Err: fmt.Errorf("%w: %s", ErrInjectedENOSPC, r.Site)}
	case KindShortWrite:
		return Fault{Kind: r.Kind, Err: fmt.Errorf("%w: %s shortwrite", ErrInjected, r.Site)}
	case KindLatency:
		return Fault{Kind: r.Kind, Delay: r.Delay}
	}
	return Fault{}
}

// unitHash maps (seed, rule, hit) to [0,1) via FNV-64a with an
// avalanche finalizer — the same deterministic-jitter idiom the jobs
// retry policy uses.
func unitHash(seed, rule, hit uint64) float64 {
	h := uint64(1469598103934665603)
	for _, v := range [3]uint64{seed, rule, hit} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

const maskAny = maskError | maskShortWrite | maskFsyncFail | maskENOSPC | maskLatency | maskDrop | maskPartition

// The site methods below take the peer the traffic goes to or comes
// from; "" matches only rules without a peer= matcher.

// Fire evaluates site against all fault kinds.
func (p *Plan) Fire(site, peer string) Fault { return p.eval(site, peer, maskAny) }

// Error evaluates site for error-returning faults (error, enospc,
// fsyncfail) and returns the injected error, or nil.
func (p *Plan) Error(site, peer string) error {
	return p.eval(site, peer, maskError|maskENOSPC|maskFsyncFail).Err
}

// Sleep evaluates site for latency faults and blocks for the
// configured delay, honoring ctx. Returns ctx.Err() if the context
// expires mid-delay.
func (p *Plan) Sleep(ctx context.Context, site, peer string) error {
	f := p.eval(site, peer, maskLatency)
	if !f.Active() || f.Delay <= 0 {
		return nil
	}
	t := time.NewTimer(f.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drop evaluates site for drop/partition faults on a message from/to
// peer and reports whether the message should be lost.
func (p *Plan) Drop(site, peer string) bool {
	return p.eval(site, peer, maskDrop|maskPartition).Active()
}

// FileWrite evaluates a file-write site about to persist n bytes.
// It returns (n, nil) when no fault fires; on a short write it
// returns how many bytes should reach the file before the failure.
func (p *Plan) FileWrite(site, peer string, n int) (int, error) {
	f := p.eval(site, peer, maskError|maskENOSPC|maskShortWrite)
	if !f.Active() {
		return n, nil
	}
	if f.Kind == KindShortWrite {
		return n / 2, f.Err
	}
	return 0, f.Err
}

// --- spec parsing ------------------------------------------------------

// Parse compiles a compact spec string into a Plan. Grammar:
//
//	spec   := clause (';' clause)*
//	clause := "seed=N" | rule
//	rule   := "site=NAME kind=KIND [prob=F] [count=N] [after=N] [until=N] [delay=DUR] [peer=ADDR]"
//
// Example:
//
//	seed=7;site=cluster.forward.rtt kind=latency delay=120ms prob=0.4 count=30;site=jobs.journal.fsync kind=fsyncfail count=1 after=4
//
// Unknown sites, kinds a site does not honor, and malformed fields are
// errors: a chaos spec that injects nothing should never pass silently.
func Parse(spec string) (*Plan, error) {
	p := &Plan{sites: make(map[string]*site, len(Registry))}
	for _, si := range Registry {
		p.sites[si.Name] = &site{}
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok && !strings.ContainsRune(v, ' ') {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", v, err)
			}
			p.Seed = n
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		ar := &armedRule{Rule: r, idx: len(p.rules)}
		p.rules = append(p.rules, ar)
		s := p.sites[r.Site]
		s.rules = append(s.rules, ar)
	}
	if len(p.rules) == 0 {
		return nil, errors.New("chaos: spec has no rules")
	}
	return p, nil
}

func parseRule(clause string) (Rule, error) {
	r := Rule{Prob: 1}
	for _, f := range strings.Fields(clause) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("chaos: bad field %q in %q", f, clause)
		}
		var err error
		switch k {
		case "site":
			r.Site = v
		case "kind":
			r.Kind = Kind(v)
		case "prob":
			r.Prob, err = strconv.ParseFloat(v, 64)
			if err == nil && (r.Prob < 0 || r.Prob > 1) {
				err = errors.New("out of [0,1]")
			}
		case "count":
			r.Count, err = parseCount(v)
		case "after":
			r.After, err = parseCount(v)
		case "until":
			r.Until, err = parseCount(v)
		case "delay":
			r.Delay, err = time.ParseDuration(v)
		case "peer":
			r.Peer = v
		default:
			return r, fmt.Errorf("chaos: unknown field %q in %q", k, clause)
		}
		if err != nil {
			return r, fmt.Errorf("chaos: bad %s=%q: %v", k, v, err)
		}
	}
	si := siteInfo(r.Site)
	if si == nil {
		known := make([]string, len(Registry))
		for i, s := range Registry {
			known[i] = s.Name
		}
		return r, fmt.Errorf("chaos: unknown site %q (known: %s)", r.Site, strings.Join(known, ", "))
	}
	if !si.honors(r.Kind) {
		return r, fmt.Errorf("chaos: site %s does not honor kind %q (honors: %v)", r.Site, r.Kind, si.Kinds)
	}
	if r.Kind == KindLatency && r.Delay <= 0 {
		return r, fmt.Errorf("chaos: site %s kind=latency needs delay=", r.Site)
	}
	if r.Kind == KindPartition && r.Peer == "" {
		return r, fmt.Errorf("chaos: site %s kind=partition needs peer=", r.Site)
	}
	return r, nil
}

// parseCount parses a hit count or window bound. Negative values are
// errors: a negative after= would never inject, and a negative count=
// or until= would silently mean "unlimited".
func parseCount(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && n < 0 {
		err = errors.New("negative")
	}
	return n, err
}

// String renders the plan back to a parseable spec.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for _, r := range p.rules {
		fmt.Fprintf(&b, ";site=%s kind=%s", r.Site, r.Kind)
		if r.Prob != 1 {
			fmt.Fprintf(&b, " prob=%g", r.Prob)
		}
		if r.Count != 0 {
			fmt.Fprintf(&b, " count=%d", r.Count)
		}
		if r.After != 0 {
			fmt.Fprintf(&b, " after=%d", r.After)
		}
		if r.Until != 0 {
			fmt.Fprintf(&b, " until=%d", r.Until)
		}
		if r.Delay != 0 {
			fmt.Fprintf(&b, " delay=%s", r.Delay)
		}
		if r.Peer != "" {
			fmt.Fprintf(&b, " peer=%s", r.Peer)
		}
	}
	return b.String()
}

// Injections sums injected faults across all sites; zero for a nil plan.
func (p *Plan) Injections() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, s := range p.sites {
		n += s.injections.Load()
	}
	return n
}
