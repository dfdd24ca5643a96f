package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/obs"
)

// Route values carried on the X-Cluster-Route response header: where
// this replica got the answer.
const (
	// RouteLocal: this replica owned the key (or runs solo).
	RouteLocal = "local"
	// RouteForwarded: the answer came from the owning replica.
	RouteForwarded = "forwarded"
	// RouteDegraded: the owner was unreachable; this replica computed
	// locally instead of failing the request.
	RouteDegraded = "degraded"
)

// hopTimeout caps one cross-replica hop; the effective hop budget is
// min(hopTimeout, half the request's remaining time). It is also the
// overall timeout of the forward and gossip HTTP client, a backstop.
const hopTimeout = 2 * time.Second

// minHopBudget is the floor on a cross-replica hop's deadline; below it
// a forward cannot realistically complete, so the hop is not attempted
// with less.
const minHopBudget = 25 * time.Millisecond

// Options configures a Node.
type Options struct {
	// Self is this replica's advertised cluster address (host:port or
	// http://host:port).
	Self string
	// Peers are the other replicas' addresses (the static boot list;
	// gossip discovers the rest).
	Peers []string
	// Seed drives gossip target selection.
	Seed int64
	// HedgeDelay is how long to wait on the owner before racing a second
	// copy of the request to the ring successor (default 250ms; negative
	// disables hedging).
	HedgeDelay time.Duration
	// Retry is the cross-replica retry schedule, sharing the jobs
	// package's exponential backoff.
	Retry jobs.RetryPolicy
	// GossipInterval is the anti-entropy round period (default 500ms).
	GossipInterval time.Duration
	// Exchange overrides the gossip transport (tests); default is HTTP
	// POST to <peer>/v1/cluster/gossip.
	Exchange ExchangeFunc
	// QueueDepth reports this replica's engine backlog for gossip load
	// hints. Nil gossips zero.
	QueueDepth func() int64
	// Uptime reports this replica's uptime seconds. Nil gossips zero.
	Uptime func() float64
	// Now injects the clock used by the breaker and by the incarnation
	// stamp, so seeded tests are fully deterministic; defaults to
	// time.Now.
	Now func() time.Time
	// Logger receives cluster events. Nil discards.
	Logger *slog.Logger
	// Registry receives netpowerprop_cluster_* and netpowerprop_breaker_*
	// metrics; nil keeps them unregistered.
	Registry *obs.Registry
	// Chaos is the failpoint plan the forward path, the HTTP gossip
	// exchange and the gossip receive side consult (see internal/chaos).
	// Nil — the default — injects nothing.
	Chaos *chaos.Plan
}

// Node is one replica's view of the cluster: the gossiper, the ring
// cache, and the forwarding path that implements engine.RemoteFunc.
type Node struct {
	self       string
	hedgeDelay time.Duration
	retry      jobs.RetryPolicy
	interval   time.Duration
	client     *http.Client
	log        *slog.Logger
	chaos      *chaos.Plan
	gossip     *Gossiper
	queueDepth func() int64
	uptime     func() float64
	// sleep is the backoff sleeper, injectable so retry tests need not
	// wait out real delays.
	sleep func(ctx context.Context, d time.Duration) error

	breaker *Breaker
	budget  *RetryBudget

	ring atomic.Pointer[ringCache]

	// The netpowerprop_cluster_* counters. breakerSkips counts
	// dispatches sent straight to local compute because the owner's
	// circuit was open; budget exhaustions live on n.budget.
	forwarded, forwardErrors, hedges, hedgeWins *obs.Counter
	degraded, retries, breakerSkips             *obs.Counter
}

// ringCache pins a built ring to the gossip membership version it was
// built from.
type ringCache struct {
	version uint64
	ring    *Ring
}

// New builds a Node. It does not start gossiping — call Run.
func New(opts Options) *Node {
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = 250 * time.Millisecond
	}
	if opts.GossipInterval <= 0 {
		opts.GossipInterval = 500 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	self := normalizeAddr(opts.Self)
	peers := make([]string, 0, len(opts.Peers))
	for _, p := range opts.Peers {
		if a := normalizeAddr(p); a != "" && a != self {
			peers = append(peers, a)
		}
	}
	n := &Node{
		self:       self,
		hedgeDelay: opts.HedgeDelay,
		retry:      opts.Retry,
		interval:   opts.GossipInterval,
		client:     &http.Client{Timeout: hopTimeout},
		log:        cmp.Or(opts.Logger, obs.Nop()).With("peer", self),
		chaos:      opts.Chaos,
		queueDepth: opts.QueueDepth,
		uptime:     opts.Uptime,
		breaker:    NewBreaker(BreakerOptions{Now: opts.Now, Registry: opts.Registry}),
		budget:     NewRetryBudget(),
	}
	n.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	exchange := opts.Exchange
	if exchange == nil {
		exchange = n.httpExchange
	}
	// The incarnation is stamped through the injectable clock so seeded
	// gossip/chaos runs are fully deterministic; only production reads
	// the wall clock.
	n.gossip = NewGossiper(GossipOptions{
		Self:        self,
		Peers:       peers,
		Seed:        opts.Seed,
		Incarnation: opts.Now().UnixNano(),
		Exchange:    exchange,
		Logger:      n.log,
	})
	n.instrument(opts.Registry)
	return n
}

// instrument creates the netpowerprop_cluster_* metrics. A nil registry
// yields handles that count but are not rendered.
func (n *Node) instrument(reg *obs.Registry) {
	n.forwarded = reg.Counter("netpowerprop_cluster_forwarded_total",
		"Requests proxied to their owning replica.")
	n.forwardErrors = reg.Counter("netpowerprop_cluster_forward_errors_total",
		"Cross-replica hops that failed (before any retry or degradation).")
	n.hedges = reg.Counter("netpowerprop_cluster_hedges_total",
		"Hedged reads launched after the owner stalled past the hedge delay.")
	n.hedgeWins = reg.Counter("netpowerprop_cluster_hedge_wins_total",
		"Hedged reads that answered before the owner.")
	n.degraded = reg.Counter("netpowerprop_cluster_degraded_total",
		"Requests demoted to local computation because no owner was reachable.")
	n.retries = reg.Counter("netpowerprop_cluster_retries_total",
		"Cross-replica hop retries (backoff sleeps taken).")
	reg.CounterFunc("netpowerprop_cluster_gossip_rounds_total",
		"Anti-entropy gossip rounds run.",
		func() float64 { return float64(n.gossip.Rounds()) })
	reg.CounterFunc("netpowerprop_cluster_peer_deaths_total",
		"Local death verdicts issued about peers.",
		func() float64 { return float64(n.gossip.Deaths()) })
	reg.GaugeFunc("netpowerprop_cluster_peers_alive",
		"Replicas currently alive in this replica's view (self included).",
		func() float64 { return float64(len(n.gossip.Alive())) })
	n.breakerSkips = reg.Counter("netpowerprop_cluster_breaker_skips_total",
		"Dispatches degraded to local compute because the owner's circuit was open.")
	reg.CounterFunc("netpowerprop_cluster_retry_budget_exhausted_total",
		"Cross-replica retries refused by an empty per-peer retry budget.",
		func() float64 { return float64(n.budget.Exhausted()) })
}

// normalizeAddr canonicalizes a peer address: scheme added when absent,
// trailing slash dropped. All ring hashing and peer-table keys use the
// normalized form, so "host:8080" and "http://host:8080/" are one peer.
func normalizeAddr(a string) string {
	a = strings.TrimSpace(a)
	if a == "" {
		return ""
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return strings.TrimRight(a, "/")
}

// Self is this replica's normalized cluster address.
func (n *Node) Self() string { return n.self }

// Ring returns the current consistent-hash ring, rebuilt (and cached)
// whenever gossip membership changes.
func (n *Node) Ring() *Ring {
	v := n.gossip.Version()
	if c := n.ring.Load(); c != nil && c.version == v {
		return c.ring
	}
	r := NewRing(n.gossip.Alive())
	n.ring.Store(&ringCache{version: v, ring: r})
	return r
}

// Run drives the gossip loop until ctx is done: refresh local load
// hints, then one anti-entropy round per interval.
func (n *Node) Run(ctx context.Context) {
	t := time.NewTicker(n.interval)
	defer t.Stop()
	for {
		n.tick(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// tick is one gossip round with fresh load hints.
func (n *Node) tick(ctx context.Context) {
	var depth int64
	if n.queueDepth != nil {
		depth = n.queueDepth()
	}
	var up float64
	if n.uptime != nil {
		up = n.uptime()
	}
	n.gossip.SetLocal(depth, up)
	n.gossip.Tick(ctx)
}

// SetDraining marks this replica draining; the next gossip rounds spread
// it, and every ring drops this replica for new keys.
func (n *Node) SetDraining() { n.gossip.SetDraining() }

// ErrGossipDropped marks an inbound digest lost to an injected
// one-way partition: the HTTP layer answers 503 so the sender sees a
// failed exchange, exactly like a lost packet.
var ErrGossipDropped = errors.New("cluster: inbound gossip digest dropped (injected fault)")

// HandleGossip is the receive side of an anti-entropy exchange: merge
// the caller's digest, reply with ours. Wired to POST /v1/cluster/gossip.
func (n *Node) HandleGossip(d Digest) (Digest, error) {
	if d.From != "" && n.chaos.Drop(chaos.SiteGossipDeliver, d.From) {
		// Failpoint: traffic FROM d.From into this node is partitioned
		// away — neither merged nor answered.
		return Digest{}, ErrGossipDropped
	}
	n.gossip.MergeDigest(d)
	if d.From != "" {
		// An inbound digest is direct evidence the sender's process is up,
		// whatever our failure counter thought.
		n.gossip.ObserveSuccess(d.From)
	}
	return n.gossip.Digest(), nil
}

// httpExchange is the production gossip transport: POST the digest to
// the peer's gossip endpoint, merge its reply. Every failpoint error
// reaches Gossiper.Tick as a failed exchange, which charges
// ObserveFailure against the peer — or, when ctx is done (canceled
// mid-injected-delay at shutdown), ends the round charging no one.
func (n *Node) httpExchange(ctx context.Context, peer string, d Digest) (Digest, error) {
	// Failpoints: the outbound request is lost or refused before the
	// wire — the peer never sees it — or delayed on its way out.
	if n.chaos.Drop(chaos.SiteGossipSend, peer) {
		return Digest{}, fmt.Errorf("gossip %s: request dropped: %w", peer, chaos.ErrInjected)
	}
	if err := n.chaos.Error(chaos.SiteGossipSend, peer); err != nil {
		return Digest{}, err
	}
	if err := n.chaos.Sleep(ctx, chaos.SiteGossipSend, peer); err != nil {
		return Digest{}, err
	}
	body, err := json.Marshal(d)
	if err != nil {
		return Digest{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, n.hopBudget(ctx))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		peer+"/v1/cluster/gossip", bytes.NewReader(body))
	if err != nil {
		return Digest{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return Digest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return Digest{}, fmt.Errorf("gossip %s: status %d", peer, resp.StatusCode)
	}
	var reply Digest
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return Digest{}, fmt.Errorf("gossip %s: decode reply: %w", peer, err)
	}
	// Failpoint: the reply is lost on its way back from peer — under a
	// one-way partition (peer=<peer>) the exchange looks failed even
	// though peer merged our digest.
	if n.chaos.Drop(chaos.SiteGossipDeliver, peer) {
		return Digest{}, fmt.Errorf("gossip %s: reply dropped: %w", peer, chaos.ErrInjected)
	}
	return reply, nil
}

// routeNoteKey carries the RouteNote through the engine to Dispatch.
type routeNoteKey struct{}

// RouteNote is a slot the HTTP layer threads through the request context
// so Dispatch can report which path answered (the X-Cluster-Route
// header). Concurrency-safe because hedged forwards share a context.
type RouteNote struct {
	mu sync.Mutex
	v  string
}

// Set records the route taken.
func (rn *RouteNote) Set(v string) {
	if rn == nil {
		return
	}
	rn.mu.Lock()
	rn.v = v
	rn.mu.Unlock()
}

// Value is the recorded route ("" when Dispatch never ran — e.g. a
// cache hit).
func (rn *RouteNote) Value() string {
	if rn == nil {
		return ""
	}
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.v
}

// WithRouteNote attaches a fresh RouteNote to the context.
func WithRouteNote(ctx context.Context) (context.Context, *RouteNote) {
	rn := &RouteNote{}
	return context.WithValue(ctx, routeNoteKey{}, rn), rn
}

// noteRoute records the route on the context's note, if any.
func noteRoute(ctx context.Context, v string) {
	if rn, ok := ctx.Value(routeNoteKey{}).(*RouteNote); ok {
		rn.Set(v)
	}
}

// hopBudget is one cross-replica hop's deadline: min(hopTimeout, half
// the request's remaining time), floored at minHopBudget — half, so a
// failed hop always leaves time for a retry or the local fallback.
func (n *Node) hopBudget(ctx context.Context) time.Duration {
	budget := hopTimeout
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl) / 2; remaining < budget {
			budget = remaining
		}
	}
	if budget < minHopBudget {
		budget = minHopBudget
	}
	return budget
}

// Dispatch is the engine's remote hook (engine.RemoteFunc): decide the
// key's owner on the ring and, when it is another replica, proxy the
// request there with per-hop deadlines, backoff retries, and a
// hedged read to the ring successor. The degradation ladder:
//
//  1. owner is self (or ring empty) → (nil, false, nil): compute locally.
//  2. owner is remote → forward, retrying with backoff; between attempts
//     the ring is re-read, so a death verdict re-routes mid-request.
//  3. owner's circuit breaker is open, or the per-peer retry budget is
//     exhausted → immediate degrade-to-local, no network attempt.
//  4. every attempt failed but the request still has time →
//     (nil, false, nil) counted as degraded: compute locally rather than
//     fail — every replica computes identical bytes; the ring only
//     concentrates cache ownership.
//  5. request deadline exhausted → (nil, true, ctx.Err()).
func (n *Node) Dispatch(ctx context.Context, key string, req engine.Request) (*engine.Result, bool, error) {
	ring := n.Ring()
	owner := ring.Owner(key)
	if owner == "" || owner == n.self {
		noteRoute(ctx, RouteLocal)
		return nil, false, nil
	}
	policy := n.retry
	if policy.MaxAttempts <= 0 {
		policy.MaxAttempts = 3
	}
	n.budget.Deposit(owner)
attempts:
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := n.sleep(ctx, policy.Delay(key, 0, attempt)); err != nil {
				return nil, true, err
			}
			// Re-read the ring BEFORE charging the budget: gossip may
			// have moved the key while we backed off (owner died or
			// drained), and the retry token must come out of the bucket
			// of the peer the retry actually targets.
			ring = n.Ring()
			if next := ring.Owner(key); next != owner {
				if next == "" || next == n.self {
					noteRoute(ctx, RouteLocal)
					return nil, false, nil
				}
				n.budget.Deposit(next)
				owner = next
			}
			// Retries draw on the owner's budget: when a sick peer has
			// burned it, degrade immediately instead of piling on.
			if !n.budget.Spend(owner) {
				n.log.Warn("retry budget exhausted, degrading", "owner", owner)
				break attempts
			}
			n.retries.Inc()
		}
		admit, probe := n.breaker.Allow(owner)
		if !admit {
			// Circuit open: the owner has failed consecutively and its
			// cooldown has not elapsed. No network attempt at all.
			n.breakerSkips.Inc()
			n.log.Debug("breaker open, degrading", "owner", owner)
			break attempts
		}
		res, err := n.forwardHedged(ctx, ring, owner, key, req, probe)
		if err == nil {
			n.forwarded.Inc()
			noteRoute(ctx, RouteForwarded)
			return res, true, nil
		}
		n.forwardErrors.Inc()
		n.log.Debug("forward failed", "owner", owner, "attempt", attempt+1, "err", err.Error())
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
	}
	n.degraded.Inc()
	noteRoute(ctx, RouteDegraded)
	n.log.Warn("degrading to local compute", "owner", owner, "key_hash", hash64(key))
	return nil, false, nil
}

// forwardOutcome is one forward attempt's result.
type forwardOutcome struct {
	res  *engine.Result
	err  error
	addr string
}

// forwardHedged sends the request to the owner and, if the owner stalls
// past the hedge delay, races a second copy to the ring successor. First
// success wins — the deferred cancel tears down the losing copy's
// request immediately — and both failing returns the first error.
// ownerProbe says the owner admission was a half-open breaker probe (as
// does the hedge's own Allow for the successor); every admitted probe is
// resolved on every exit path — Success, Failure, or CancelProbe via
// drainLosers — because an unresolved probe wedges the peer's circuit
// half-open forever. Losers never touch hedgeWins or the forward
// counters, so a hedge race cannot double-count those.
//
// inflight maps each racer still awaiting an outcome to whether its
// admission was a breaker probe.
func (n *Node) forwardHedged(ctx context.Context, ring *Ring, owner, key string, req engine.Request, ownerProbe bool) (*engine.Result, error) {
	hopCtx, cancel := context.WithTimeout(ctx, n.hopBudget(ctx))
	defer cancel()
	ch := make(chan forwardOutcome, 2)
	send := func(addr string) {
		res, err := n.forward(hopCtx, addr, req)
		ch <- forwardOutcome{res: res, err: err, addr: addr}
	}
	inflight := map[string]bool{owner: ownerProbe}
	go send(owner)
	var hedgeC <-chan time.Time
	hedgeTarget := ""
	if n.hedgeDelay > 0 {
		if t := ring.Successor(key, owner, n.self); t != "" {
			hedgeTarget = t
			timer := time.NewTimer(n.hedgeDelay)
			defer timer.Stop()
			hedgeC = timer.C
		}
	}
	var firstErr error
	for {
		select {
		case out := <-ch:
			wasProbe := inflight[out.addr]
			delete(inflight, out.addr)
			if out.err == nil {
				n.gossip.ObserveSuccess(out.addr)
				n.breaker.Success(out.addr)
				if out.addr != owner {
					n.hedgeWins.Inc()
				}
				n.drainLosers(ch, inflight)
				return out.res, nil
			}
			if ctx.Err() == nil {
				// Only peer-attributable failures feed the health verdicts:
				// a parent-context cancellation (client gone) says nothing
				// about the peer.
				n.gossip.ObserveFailure(out.addr)
				n.breaker.Failure(out.addr)
			} else if wasProbe {
				// No verdict to charge, but the probe slot must be
				// released or the peer's circuit wedges half-open.
				n.breaker.CancelProbe(out.addr)
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if len(inflight) == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			admit, probe := n.breaker.Allow(hedgeTarget)
			if !admit {
				// The successor's circuit is open too; don't burn a hedge
				// on a peer already judged sick.
				continue
			}
			n.hedges.Inc()
			inflight[hedgeTarget] = probe
			go send(hedgeTarget)
		case <-hopCtx.Done():
			for addr, wasProbe := range inflight {
				if ctx.Err() == nil {
					// The hop budget expired with requests still in flight:
					// that is a slowness verdict on every peer that never
					// answered, and must feed the breaker/gossip exactly like
					// a returned error (a black-holed peer produces no
					// outcome to read, so this is the only place it can be
					// charged).
					n.gossip.ObserveFailure(addr)
					n.breaker.Failure(addr)
				} else if wasProbe {
					n.breaker.CancelProbe(addr)
				}
			}
			if firstErr == nil {
				firstErr = hopCtx.Err()
			}
			return nil, firstErr
		}
	}
}

// drainLosers resolves the racers a hedge winner left in flight. Their
// outcomes are read off the buffered channel in the background (never
// blocking the won request) and fed to the breaker: a genuine success
// re-closes the loser's circuit, while an error — almost always our own
// deferred cancel tearing the loser down, which says nothing about the
// peer — releases an admitted probe without a verdict. Without this the
// winning racer would strand the loser's half-open probe forever
// (probing=true, no resolution), permanently wedging that peer.
func (n *Node) drainLosers(ch <-chan forwardOutcome, inflight map[string]bool) {
	if len(inflight) == 0 {
		return
	}
	probes := make(map[string]bool, len(inflight))
	for addr, probe := range inflight {
		probes[addr] = probe
	}
	go func() {
		for range probes {
			out := <-ch
			if out.err == nil {
				n.gossip.ObserveSuccess(out.addr)
				n.breaker.Success(out.addr)
			} else if probes[out.addr] {
				n.breaker.CancelProbe(out.addr)
			}
		}
	}()
}

// forward proxies one request to a replica over the public JSON API.
// X-Forwarded-Admit tells the receiver admission was already charged at
// the ingress replica and that it must answer locally (no re-forward);
// X-Trace-Id carries the hop's provenance.
func (n *Node) forward(ctx context.Context, addr string, req engine.Request) (*engine.Result, error) {
	// Failpoints: injected round-trip latency, then send faults — an
	// error returns immediately, a drop black-holes the request until
	// the hop deadline (the worst kind of sick peer).
	if err := n.chaos.Sleep(ctx, chaos.SiteForwardRTT, addr); err != nil {
		return nil, err
	}
	if f := n.chaos.Fire(chaos.SiteForwardSend, addr); f.Active() {
		if f.Kind == chaos.KindDrop || f.Kind == chaos.KindPartition {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return nil, f.Err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	path := "/v1/" + string(req.Op)
	if req.Op == engine.OpScenario {
		path = "/v1/scenarios/" + url.PathEscape(req.Scenario)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Forwarded-Admit", "1")
	if id := obs.TraceID(ctx); obs.ValidTraceID(id) {
		hreq.Header.Set("X-Trace-Id", id)
	}
	resp, err := n.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("forward %s%s: status %d: %s", addr, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var env struct {
		Result *engine.Result `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("forward %s%s: decode: %w", addr, path, err)
	}
	if env.Result == nil {
		return nil, fmt.Errorf("forward %s%s: empty result", addr, path)
	}
	return env.Result, nil
}

// Status is the /v1/cluster view of this replica.
type Status struct {
	Self          string      `json:"self"`
	RingMembers   []string    `json:"ring_members"`
	Peers         []PeerState `json:"peers"`
	Forwarded     uint64      `json:"forwarded"`
	ForwardErrors uint64      `json:"forward_errors"`
	Hedges        uint64      `json:"hedges"`
	HedgeWins     uint64      `json:"hedge_wins"`
	Degraded      uint64      `json:"degraded"`
	Retries       uint64      `json:"retries"`
	GossipRounds  uint64      `json:"gossip_rounds"`
	PeerDeaths    uint64      `json:"peer_deaths"`
	// Breakers is every tracked peer's forward circuit; BreakerOpen is
	// how many are currently not closed (the chaos-matrix "all re-closed"
	// gate reads it).
	Breakers        []BreakerStatus `json:"breakers,omitempty"`
	BreakerOpen     int             `json:"breaker_open"`
	BreakerSkips    uint64          `json:"breaker_skips"`
	RetryBudgets    []BudgetStatus  `json:"retry_budgets,omitempty"`
	BudgetExhausted uint64          `json:"retry_budget_exhausted"`
	// ChaosInjected sums the faults this replica's plan injected
	// across all chaos sites (zero when disarmed).
	ChaosInjected uint64 `json:"chaos_injected"`
}

// Status snapshots the replica's cluster view.
func (n *Node) Status() Status {
	return Status{
		Self:            n.self,
		RingMembers:     n.Ring().Members(),
		Peers:           n.gossip.Snapshot(),
		Forwarded:       n.forwarded.Value(),
		ForwardErrors:   n.forwardErrors.Value(),
		Hedges:          n.hedges.Value(),
		HedgeWins:       n.hedgeWins.Value(),
		Degraded:        n.degraded.Value(),
		Retries:         n.retries.Value(),
		GossipRounds:    n.gossip.Rounds(),
		PeerDeaths:      n.gossip.Deaths(),
		Breakers:        n.breaker.Snapshot(),
		BreakerOpen:     n.breaker.OpenCount(),
		BreakerSkips:    n.breakerSkips.Value(),
		RetryBudgets:    n.budget.Snapshot(),
		BudgetExhausted: n.budget.Exhausted(),
		ChaosInjected:   n.chaos.Injections(),
	}
}
