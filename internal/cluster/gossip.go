package cluster

import (
	"cmp"
	"context"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"netpowerprop/internal/obs"
)

// The gossip layer is a seeded, deterministic anti-entropy protocol.
// Each replica keeps one record per peer — incarnation (the peer's
// start instant), a heartbeat counter, a health state, and load hints —
// and each round pushes its full digest to a few seeded-random targets,
// merging their replies. The merge is a CRDT-style join, so any gossip
// topology converges to one view:
//
//   - higher incarnation wins outright (a restarted peer replaces every
//     older record, including its own tombstone);
//   - equal incarnation, higher heartbeat wins (fresher self-report);
//   - equal on both, the worse state wins (tombstones spread: a death
//     verdict at heartbeat H beats "alive at H" everywhere);
//   - dead is sticky per incarnation — only a restart resurrects.
//
// A replica is the sole authority for its own record: records about
// self are never merged (a false death verdict is refuted by bumping
// our own incarnation, which then wins everywhere). Deaths are detected
// two ways: staleness (no heartbeat advance for gossipDeadAfter rounds)
// and direct failure (gossipFailAfter consecutive exchange errors), the
// latter so the replica actually talking to a crashed peer spreads the
// verdict fast instead of waiting out the staleness window. Each round
// exchanges with gossipFanout targets. Target selection is a pure
// function of (seed, self, round), so a test driving Tick manually gets
// the identical exchange schedule every run.

const (
	gossipFanout    = 2
	gossipDeadAfter = 5
	gossipFailAfter = 2
)

// PeerHealth is a replica's health state as spread by gossip.
type PeerHealth string

const (
	// HealthAlive: serving and a ring member.
	HealthAlive PeerHealth = "alive"
	// HealthDraining: finishing in-flight work, journaling checkpoints;
	// excluded from the ring so no new keys map to it.
	HealthDraining PeerHealth = "draining"
	// HealthDead: unresponsive or stale; excluded from the ring, its
	// durable jobs adoptable by survivors.
	HealthDead PeerHealth = "dead"
)

// healthRank orders states worst-last for the merge tie-break.
func healthRank(h PeerHealth) int {
	switch h {
	case HealthDead:
		return 2
	case HealthDraining:
		return 1
	}
	return 0
}

// PeerState is one replica's gossiped record.
type PeerState struct {
	// Addr is the replica's cluster address (http://host:port).
	Addr string `json:"addr"`
	// Incarnation is the replica's start instant (Unix nanoseconds); a
	// restart begins a new incarnation that supersedes every record of
	// the old one.
	Incarnation int64 `json:"incarnation"`
	// Heartbeat counts the replica's gossip rounds within this
	// incarnation; it only ever advances at the replica itself.
	Heartbeat uint64 `json:"heartbeat"`
	// State is the replica's health.
	State PeerHealth `json:"state"`
	// QueueDepth is the replica's engine pending count, a load hint.
	QueueDepth int64 `json:"queue_depth"`
	// UptimeSeconds is the replica's self-reported uptime.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Digest is one gossip exchange payload: the sender's full peer table.
type Digest struct {
	From  string      `json:"from"`
	Peers []PeerState `json:"peers"`
}

// ExchangeFunc delivers a digest to a peer and returns the peer's
// digest in reply. The node wires an HTTP POST; tests wire function
// calls between in-memory gossipers.
type ExchangeFunc func(ctx context.Context, peer string, d Digest) (Digest, error)

// GossipOptions configures a Gossiper.
type GossipOptions struct {
	// Self is this replica's cluster address.
	Self string
	// Peers seeds the table (self included or not; it is added).
	Peers []string
	// Seed drives target selection; replicas may share one seed — the
	// schedule differs per (seed, self, round).
	Seed int64
	// Incarnation is this replica's start instant (Unix nanoseconds).
	Incarnation int64
	// Exchange delivers digests.
	Exchange ExchangeFunc
	// Logger receives membership transitions. Nil discards.
	Logger *slog.Logger
}

// peerRecord is the in-memory state per peer.
type peerRecord struct {
	PeerState
	// lastAdvance is the local round when this record's (incarnation,
	// heartbeat) last advanced — the staleness clock.
	lastAdvance uint64
	// failures counts consecutive direct exchange failures.
	failures int
}

// Gossiper runs the anti-entropy rounds and owns the peer table.
type Gossiper struct {
	self string
	seed int64
	// failAfter is gossipFailAfter; tests in this package raise it to
	// keep a failing peer on the ring, or lower it to convict at once.
	failAfter int
	exchange  ExchangeFunc
	log       *slog.Logger

	mu    sync.Mutex
	peers map[string]*peerRecord
	round uint64
	// version bumps on every membership-affecting change (state
	// transition, peer added); Node caches its ring against it.
	version uint64

	rounds atomic.Uint64
	deaths atomic.Uint64
}

// NewGossiper builds the gossiper with self alive at heartbeat 0 and
// every seed peer provisionally alive at incarnation 0 (so the boot
// ring spans the static peer list before the first exchange).
func NewGossiper(opts GossipOptions) *Gossiper {
	g := &Gossiper{
		self:      opts.Self,
		seed:      opts.Seed,
		failAfter: gossipFailAfter,
		exchange:  opts.Exchange,
		log:       cmp.Or(opts.Logger, obs.Nop()),
		peers:     make(map[string]*peerRecord),
	}
	g.peers[g.self] = &peerRecord{PeerState: PeerState{
		Addr: g.self, Incarnation: opts.Incarnation, State: HealthAlive,
	}}
	for _, p := range opts.Peers {
		if p == "" || p == g.self {
			continue
		}
		if _, ok := g.peers[p]; !ok {
			g.peers[p] = &peerRecord{PeerState: PeerState{Addr: p, State: HealthAlive}}
		}
	}
	g.version = 1
	return g
}

// Tick runs one gossip round: advance our heartbeat, sweep for stale
// peers, then exchange digests with the round's seeded targets. Safe to
// call from one goroutine (the node's gossip loop or a test driver).
func (g *Gossiper) Tick(ctx context.Context) {
	g.mu.Lock()
	g.round++
	round := g.round
	self := g.peers[g.self]
	self.Heartbeat++
	self.lastAdvance = round
	for _, p := range g.peers {
		if p.Addr == g.self || p.State == HealthDead {
			continue
		}
		if round-p.lastAdvance >= gossipDeadAfter {
			g.markDeadLocked(p, "stale")
		}
	}
	targets := g.pickTargetsLocked(round)
	digest := g.digestLocked()
	g.mu.Unlock()
	g.rounds.Add(1)

	for _, t := range targets {
		reply, err := g.exchange(ctx, t, digest)
		if err != nil {
			if ctx.Err() != nil {
				// Canceled mid-exchange (shutdown): that's a local
				// verdict, not the peer's — end the round without
				// charging ObserveFailure against anyone.
				return
			}
			g.ObserveFailure(t)
			continue
		}
		g.ObserveSuccess(t)
		g.MergeDigest(reply)
	}
}

// pickTargetsLocked selects this round's exchange targets: a seeded
// shuffle of the non-self, non-dead peers, deterministic in
// (seed, self, round). Callers hold g.mu.
func (g *Gossiper) pickTargetsLocked(round uint64) []string {
	var cand []string
	for addr, p := range g.peers {
		if addr == g.self || p.State == HealthDead {
			continue
		}
		cand = append(cand, addr)
	}
	sort.Strings(cand)
	if len(cand) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(g.seed ^ int64(hash64(g.self)) ^ int64(round)))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) > gossipFanout {
		cand = cand[:gossipFanout]
	}
	return cand
}

// digestLocked copies the full peer table — tombstones included, so
// death verdicts spread. Callers hold g.mu.
func (g *Gossiper) digestLocked() Digest {
	d := Digest{From: g.self, Peers: make([]PeerState, 0, len(g.peers))}
	for _, p := range g.peers {
		d.Peers = append(d.Peers, p.PeerState)
	}
	sort.Slice(d.Peers, func(i, j int) bool { return d.Peers[i].Addr < d.Peers[j].Addr })
	return d
}

// Digest snapshots this replica's gossip payload (the reply body of the
// gossip endpoint).
func (g *Gossiper) Digest() Digest {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.digestLocked()
}

// MergeDigest joins a remote digest into the peer table under the merge
// rules at the top of the file.
func (g *Gossiper) MergeDigest(d Digest) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ps := range d.Peers {
		if ps.Addr == "" {
			continue
		}
		if ps.Addr == g.self {
			// We are the authority on ourselves. A false death (or drain)
			// verdict at our incarnation is refuted by starting a fresh
			// incarnation, which outranks the tombstone everywhere.
			self := g.peers[g.self]
			if ps.Incarnation >= self.Incarnation && healthRank(ps.State) > healthRank(self.State) {
				self.Incarnation = ps.Incarnation + 1
				self.Heartbeat++
				self.lastAdvance = g.round
				g.version++
				g.log.Warn("refuted gossip verdict about self",
					"claimed", string(ps.State), "new_incarnation", self.Incarnation)
			}
			continue
		}
		rec, ok := g.peers[ps.Addr]
		if !ok {
			cp := ps
			g.peers[ps.Addr] = &peerRecord{PeerState: cp, lastAdvance: g.round}
			g.version++
			g.log.Info("peer discovered", "peer", ps.Addr, "state", string(ps.State))
			continue
		}
		switch {
		case ps.Incarnation > rec.Incarnation:
			// Restarted peer: the new incarnation replaces everything,
			// including a tombstone of the old one.
			if rec.State != ps.State {
				g.log.Info("peer state", "peer", ps.Addr,
					"from", string(rec.State), "to", string(ps.State), "why", "new incarnation")
			}
			rec.PeerState = ps
			rec.lastAdvance = g.round
			rec.failures = 0
			g.version++
		case ps.Incarnation == rec.Incarnation && rec.State == HealthDead:
			// Dead is sticky within an incarnation.
		case ps.Incarnation == rec.Incarnation && ps.Heartbeat > rec.Heartbeat:
			if rec.State != ps.State {
				g.log.Info("peer state", "peer", ps.Addr,
					"from", string(rec.State), "to", string(ps.State))
				g.version++
			}
			rec.PeerState = ps
			rec.lastAdvance = g.round
		case ps.Incarnation == rec.Incarnation && ps.Heartbeat == rec.Heartbeat &&
			healthRank(ps.State) > healthRank(rec.State):
			// Same evidence, worse verdict: tombstones win ties.
			if ps.State == HealthDead {
				g.deaths.Add(1)
			}
			g.log.Info("peer state", "peer", ps.Addr,
				"from", string(rec.State), "to", string(ps.State), "why", "tie-break")
			rec.State = ps.State
			g.version++
		}
	}
}

// markDeadLocked transitions a peer to dead. Callers hold g.mu.
func (g *Gossiper) markDeadLocked(p *peerRecord, why string) {
	if p.State == HealthDead {
		return
	}
	g.log.Warn("peer dead", "peer", p.Addr, "why", why,
		"incarnation", p.Incarnation, "heartbeat", p.Heartbeat)
	p.State = HealthDead
	g.version++
	g.deaths.Add(1)
}

// ObserveFailure records a failed direct exchange (or forward) to a
// peer; failAfter consecutive failures mark it dead immediately, so the
// replica actually touching a crashed peer spreads the verdict without
// waiting out the staleness window.
func (g *Gossiper) ObserveFailure(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.peers[addr]
	if !ok || p.Addr == g.self {
		return
	}
	p.failures++
	if p.failures >= g.failAfter && p.State != HealthDead {
		g.markDeadLocked(p, "exchange failures")
	}
}

// ObserveSuccess resets a peer's consecutive-failure count.
func (g *Gossiper) ObserveSuccess(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p, ok := g.peers[addr]; ok {
		p.failures = 0
	}
}

// SetDraining marks this replica draining (SetLocal keeps gossiping it,
// so the ring drops us everywhere within a round trip).
func (g *Gossiper) SetDraining() {
	g.mu.Lock()
	defer g.mu.Unlock()
	self := g.peers[g.self]
	if self.State != HealthDraining {
		self.State = HealthDraining
		self.Heartbeat++
		self.lastAdvance = g.round
		g.version++
	}
}

// SetLocal refreshes this replica's load hints before a round.
func (g *Gossiper) SetLocal(queueDepth int64, uptimeSeconds float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	self := g.peers[g.self]
	self.QueueDepth = queueDepth
	self.UptimeSeconds = uptimeSeconds
}

// Alive returns the sorted addresses of ring members: every peer
// (including self) currently alive.
func (g *Gossiper) Alive() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for addr, p := range g.peers {
		if p.State == HealthAlive {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every peer record, sorted by address.
func (g *Gossiper) Snapshot() []PeerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]PeerState, 0, len(g.peers))
	for _, p := range g.peers {
		out = append(out, p.PeerState)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Version is the membership version; it bumps whenever ring membership
// could have changed.
func (g *Gossiper) Version() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version
}

// Rounds is the number of Ticks run.
func (g *Gossiper) Rounds() uint64 { return g.rounds.Load() }

// Deaths is the number of local death verdicts (stale, exchange
// failure, or tie-break adoption).
func (g *Gossiper) Deaths() uint64 { return g.deaths.Load() }
