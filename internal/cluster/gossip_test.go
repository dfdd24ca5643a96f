package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"netpowerprop/internal/obs"
)

// mesh wires gossipers together with an in-memory exchange so tests can
// drive deterministic rounds without HTTP or clocks.
type mesh struct {
	gs   map[string]*Gossiper
	down map[string]bool // addr -> exchanges to it fail (crashed process)
}

// gossipState is addr's record as Snapshot reports it.
func gossipState(g *Gossiper, addr string) (PeerState, bool) {
	for _, st := range g.Snapshot() {
		if st.Addr == addr {
			return st, true
		}
	}
	return PeerState{}, false
}

// newMesh builds a gossiper per address. peersOf maps each address to
// its static boot list (nil means "everyone else"). All replicas share
// one seed — the schedule still differs per (self, round).
func newMesh(addrs []string, seed int64, peersOf map[string][]string, opts func(*GossipOptions)) *mesh {
	m := &mesh{gs: make(map[string]*Gossiper), down: make(map[string]bool)}
	exchange := func(_ context.Context, peer string, d Digest) (Digest, error) {
		if m.down[peer] {
			return Digest{}, errors.New("connection refused")
		}
		g, ok := m.gs[peer]
		if !ok {
			return Digest{}, fmt.Errorf("no such peer %s", peer)
		}
		g.MergeDigest(d)
		g.ObserveSuccess(d.From)
		return g.Digest(), nil
	}
	for i, addr := range addrs {
		peers := peersOf[addr]
		if peers == nil {
			for _, a := range addrs {
				if a != addr {
					peers = append(peers, a)
				}
			}
		}
		o := GossipOptions{
			Self:        addr,
			Peers:       peers,
			Seed:        seed,
			Incarnation: int64(100 * (i + 1)),
			Exchange:    exchange,
			Logger:      obs.Nop(),
		}
		if opts != nil {
			opts(&o)
		}
		m.gs[addr] = NewGossiper(o)
	}
	return m
}

// tick runs one round on every live gossiper, in address order.
func (m *mesh) tick() {
	var addrs []string
	for a := range m.gs {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		if !m.down[a] {
			m.gs[a].Tick(context.Background())
		}
	}
}

// aliveEverywhere reports whether every live gossiper's alive view
// equals want.
func (m *mesh) aliveEverywhere(want []string) bool {
	sort.Strings(want)
	for a, g := range m.gs {
		if m.down[a] {
			continue
		}
		if !reflect.DeepEqual(g.Alive(), want) {
			return false
		}
	}
	return true
}

func TestGossipDiscoversFullMembershipFromPartialSeeds(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	// A sparse boot graph: each replica knows exactly one other. Gossip
	// must close the transitive hull.
	m := newMesh(addrs, 7, map[string][]string{
		addrs[0]: {addrs[1]},
		addrs[1]: {addrs[2]},
		addrs[2]: {addrs[0]},
	}, nil)
	const bound = 4
	for round := 1; round <= bound; round++ {
		m.tick()
		if m.aliveEverywhere(addrs) {
			return
		}
	}
	for _, a := range addrs {
		t.Logf("%s alive view: %v", a, m.gs[a].Alive())
	}
	t.Fatalf("membership did not converge within %d rounds", bound)
}

func TestGossipCrashedPeerConvergesOutDeterministically(t *testing.T) {
	convergedAt := func() int {
		addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
		m := newMesh(addrs, 42, nil, nil)
		// Warm up: everyone sees everyone.
		for i := 0; i < 3; i++ {
			m.tick()
		}
		if !m.aliveEverywhere(addrs) {
			t.Fatal("mesh did not converge before the crash")
		}
		m.down[addrs[2]] = true
		survivors := []string{addrs[0], addrs[1]}
		// FailAfter defaults to 2 and every survivor targets the dead peer
		// each round (fanout 2 of 2 candidates), so the verdict is due
		// within a handful of rounds.
		const bound = 6
		for round := 1; round <= bound; round++ {
			m.tick()
			if m.aliveEverywhere(survivors) {
				return round
			}
		}
		t.Fatalf("dead peer still in a ring view after %d rounds: a=%v b=%v",
			bound, m.gs[addrs[0]].Alive(), m.gs[addrs[1]].Alive())
		return -1
	}
	first := convergedAt()
	second := convergedAt()
	if first != second {
		t.Fatalf("seeded gossip converged at round %d then %d — not deterministic", first, second)
	}
	t.Logf("dead peer converged out at round %d both runs", first)
}

func TestGossipFrozenPeerDiesOfStaleness(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	m := newMesh(addrs, 3, nil, nil)
	// c answers exchanges but never ticks: its heartbeat never advances,
	// so the staleness sweep (DeadAfter rounds without advance) must
	// catch it even though direct exchanges keep succeeding.
	frozen := addrs[2]
	m.down[frozen] = false // reachable, just frozen — but skip its stale view
	converged := func() bool {
		want := []string{addrs[0], addrs[1]}
		return reflect.DeepEqual(m.gs[addrs[0]].Alive(), want) &&
			reflect.DeepEqual(m.gs[addrs[1]].Alive(), want)
	}
	for round := 1; round <= 12; round++ {
		for _, a := range addrs[:2] {
			m.gs[a].Tick(context.Background())
		}
		if converged() {
			if st, _ := gossipState(m.gs[addrs[0]], frozen); st.State != HealthDead {
				t.Fatalf("frozen peer state = %s, want dead", st.State)
			}
			return
		}
	}
	t.Fatalf("frozen peer never died of staleness: a=%v", m.gs[addrs[0]].Alive())
}

func TestGossipDrainingPeerLeavesRingButStaysKnown(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	m := newMesh(addrs, 5, nil, nil)
	for i := 0; i < 3; i++ {
		m.tick()
	}
	m.gs[addrs[1]].SetDraining()
	for i := 0; i < 3; i++ {
		m.tick()
	}
	want := []string{addrs[0], addrs[2]}
	for _, a := range addrs {
		if got := m.gs[a].Alive(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s alive view = %v, want %v (draining peer must leave the ring)", a, got, want)
		}
		st, ok := gossipState(m.gs[a], addrs[1])
		if !ok || st.State != HealthDraining {
			t.Fatalf("%s lost track of the draining peer: %+v ok=%v", a, st, ok)
		}
	}
}

func TestGossipRestartWithNewIncarnationResurrects(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	m := newMesh(addrs, 9, nil, nil)
	for i := 0; i < 3; i++ {
		m.tick()
	}
	// Crash c and let the survivors converge on its death.
	m.down[addrs[2]] = true
	for i := 0; i < 6; i++ {
		m.tick()
	}
	if !m.aliveEverywhere([]string{addrs[0], addrs[1]}) {
		t.Fatal("survivors never buried the crashed peer")
	}
	// A same-incarnation digest must NOT resurrect: dead is sticky.
	old := m.gs[addrs[2]]
	m.gs[addrs[0]].MergeDigest(old.Digest())
	if st, _ := gossipState(m.gs[addrs[0]], addrs[2]); st.State != HealthDead {
		t.Fatalf("stale digest resurrected dead peer: %s", st.State)
	}
	// Restart c under a higher incarnation: it must rejoin everywhere.
	m.down[addrs[2]] = false
	m.gs[addrs[2]] = NewGossiper(GossipOptions{
		Self:        addrs[2],
		Peers:       []string{addrs[0], addrs[1]},
		Seed:        9,
		Incarnation: 10_000,
		Exchange:    m.gs[addrs[0]].exchange, // same in-memory transport
	})
	for i := 0; i < 4; i++ {
		m.tick()
		if m.aliveEverywhere(addrs) {
			return
		}
	}
	t.Fatalf("restarted peer never rejoined: a=%v b=%v c=%v",
		m.gs[addrs[0]].Alive(), m.gs[addrs[1]].Alive(), m.gs[addrs[2]].Alive())
}

func TestGossipRefutesFalseDeathVerdictAboutSelf(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1"}
	m := newMesh(addrs, 11, nil, nil)
	for i := 0; i < 2; i++ {
		m.tick()
	}
	a := m.gs[addrs[0]]
	st, _ := gossipState(a, addrs[0])
	// Forge a death verdict about a at its own incarnation and feed it
	// back: a must refuse it and bump its incarnation past the slander.
	a.MergeDigest(Digest{From: addrs[1], Peers: []PeerState{{
		Addr: addrs[0], Incarnation: st.Incarnation, Heartbeat: st.Heartbeat + 10, State: HealthDead,
	}}})
	after, _ := gossipState(a, addrs[0])
	if after.State != HealthAlive {
		t.Fatalf("self state = %s after slander, want alive", after.State)
	}
	if after.Incarnation <= st.Incarnation {
		t.Fatalf("incarnation %d did not advance past the refuted verdict (%d)",
			after.Incarnation, st.Incarnation)
	}
	// And the refutation must overwrite the verdict on the slanderer too.
	b := m.gs[addrs[1]]
	b.MergeDigest(Digest{From: addrs[1], Peers: []PeerState{{
		Addr: addrs[0], Incarnation: st.Incarnation, Heartbeat: st.Heartbeat + 10, State: HealthDead,
	}}})
	b.MergeDigest(a.Digest())
	got, _ := gossipState(b, addrs[0])
	if got.State != HealthAlive || got.Incarnation != after.Incarnation {
		t.Fatalf("refutation did not spread: %+v", got)
	}
}

func TestGossipVersionBumpsOnMembershipChangeOnly(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1"}
	m := newMesh(addrs, 13, nil, nil)
	for i := 0; i < 2; i++ {
		m.tick()
	}
	a := m.gs[addrs[0]]
	v := a.Version()
	// Steady-state rounds (heartbeat-only merges) must not churn the
	// version, or the Node would rebuild its ring every round.
	for i := 0; i < 5; i++ {
		m.tick()
	}
	if got := a.Version(); got != v {
		t.Fatalf("version churned %d -> %d with stable membership", v, got)
	}
	m.down[addrs[1]] = true
	for i := 0; i < 6; i++ {
		m.tick()
	}
	if got := a.Version(); got <= v {
		t.Fatalf("version did not advance past %d after a peer death (got %d)", v, got)
	}
}
