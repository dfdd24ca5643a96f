package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

// mustPlan parses a failpoint spec for one test.
func mustPlan(t *testing.T, spec string) *chaos.Plan {
	t.Helper()
	p, err := chaos.Parse(spec)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	return p
}

// Satellite regression: the losing side of a hedged forward must be
// canceled promptly and can never double-charge admission or
// double-count cluster counters. An injected slow-peer failpoint holds
// the owner in its RTT sleep; the hedge wins, and because the shared
// hop context is canceled on return, the owner's copy must die inside
// the sleep — it may never reach the wire (where it would re-present
// the already-charged X-Forwarded-Admit request).
func TestHedgeLoserCanceledPromptlyNoDoubleCharge(t *testing.T) {
	t.Parallel()
	var ownerCalls, hedgeCalls, unadmitted atomic.Int64
	slow := resultServer(t, func(*http.Request) { ownerCalls.Add(1) })
	defer slow.Close()
	fast := resultServer(t, func(r *http.Request) {
		hedgeCalls.Add(1)
		if r.Header.Get("X-Forwarded-Admit") != "1" {
			unadmitted.Add(1)
		}
	})
	defer fast.Close()

	// Hold the owner in an injected 200ms round-trip delay — far past
	// the 5ms hedge trigger, but well inside the hop budget, so only a
	// prompt cancel (not the deadline) can stop its request going out.
	plan := mustPlan(t, fmt.Sprintf(
		"seed=7;site=cluster.forward.rtt kind=latency delay=200ms peer=%s",
		normalizeAddr(slow.URL)))

	n := newTestNode(t, "http://self:1", []string{slow.URL, fast.URL}, func(o *Options) {
		o.HedgeDelay = 5 * time.Millisecond
		o.Chaos = plan
	})
	key := keyOwnedBy(t, n, slow.URL)
	if succ := n.Ring().Successor(key, normalizeAddr(slow.URL), "http://self:1"); succ != normalizeAddr(fast.URL) {
		t.Fatalf("successor = %q, want %q", succ, fast.URL)
	}

	res, handled, err := n.Dispatch(context.Background(), key, engine.Request{Op: engine.OpWhatIf})
	if err != nil || !handled || res == nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want hedged success", res, handled, err)
	}
	st := n.Status()
	if st.Forwarded != 1 || st.Hedges != 1 || st.HedgeWins != 1 || st.ForwardErrors != 0 {
		t.Fatalf("forwarded=%d hedges=%d hedge_wins=%d forward_errors=%d, want 1/1/1/0",
			st.Forwarded, st.Hedges, st.HedgeWins, st.ForwardErrors)
	}

	// Outlive the injected delay: if the loser had NOT been canceled,
	// its sleep would finish and the owner backend would see a second
	// admission-exempt request.
	time.Sleep(250 * time.Millisecond)
	if got := ownerCalls.Load(); got != 0 {
		t.Fatalf("owner backend saw %d requests after losing the hedge — loser not canceled", got)
	}
	if hedgeCalls.Load() != 1 || unadmitted.Load() != 0 {
		t.Fatalf("hedge backend calls=%d unadmitted=%d, want exactly one pre-admitted request",
			hedgeCalls.Load(), unadmitted.Load())
	}
	// Counters must not move after the fact: the loser's outcome is
	// drained off-path, so it can neither double-count nor poison the
	// breaker.
	after := n.Status()
	if after.Forwarded != 1 || after.Hedges != 1 || after.HedgeWins != 1 || after.ForwardErrors != 0 {
		t.Fatalf("counters moved after settle: %+v", after)
	}
	for _, bs := range after.Breakers {
		if bs.Fails != 0 || bs.State != BreakerClosed {
			t.Fatalf("loser poisoned breaker for %s: %+v", bs.Peer, bs)
		}
	}
}

// oneWayMesh wires three gossipers with an in-memory exchange that
// consults the cluster.gossip.deliver failpoint exactly the way a real
// process does: at the receiving node, keyed by the traffic's origin.
// Only the partition victim consults a plan — *victimPlan, which the
// test owns and heals by setting to nil — mirroring per-process chaos
// arming in the CI matrix.
func oneWayMesh(addrs []string, seed int64, victim string, victimPlan **chaos.Plan) map[string]*Gossiper {
	gs := make(map[string]*Gossiper)
	exchange := func(_ context.Context, peer string, d Digest) (Digest, error) {
		// Request delivery at the receiver.
		if peer == victim && (*victimPlan).Drop(chaos.SiteGossipDeliver, d.From) {
			return Digest{}, errors.New("request dropped (one-way partition)")
		}
		g := gs[peer]
		g.MergeDigest(d)
		g.ObserveSuccess(d.From)
		reply := g.Digest()
		// Reply delivery back at the initiator.
		if d.From == victim && (*victimPlan).Drop(chaos.SiteGossipDeliver, peer) {
			return Digest{}, errors.New("reply dropped (one-way partition)")
		}
		return reply, nil
	}
	for i, addr := range addrs {
		var peers []string
		for _, a := range addrs {
			if a != addr {
				peers = append(peers, a)
			}
		}
		gs[addr] = NewGossiper(GossipOptions{
			Self:        addr,
			Peers:       peers,
			Seed:        seed,
			Incarnation: int64(100 * (i + 1)),
			Exchange:    exchange,
			Logger:      obs.Nop(),
		})
	}
	return gs
}

// Satellite coverage: gossip under a one-way partition. Traffic from a
// into b is dropped (requests and replies), so b convicts a of death by
// direct failure even though a is alive. The false verdict must be
// self-refuted by a's incarnation bump after the partition heals, and
// both the conviction round and the post-heal reconvergence round count
// must be pinned by the seed.
func TestGossipOneWayPartitionSelfRefutesAfterHeal(t *testing.T) {
	t.Parallel()
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	a, b := addrs[0], addrs[1]

	run := func() (deathRound, healRound int) {
		t.Helper()
		var plan *chaos.Plan
		gs := oneWayMesh(addrs, 21, b, &plan)
		tick := func() {
			var order []string
			for addr := range gs {
				order = append(order, addr)
			}
			sort.Strings(order)
			for _, addr := range order {
				gs[addr].Tick(context.Background())
			}
		}
		allSee := func(want []string) bool {
			sort.Strings(want)
			for _, g := range gs {
				if !reflect.DeepEqual(g.Alive(), want) {
					return false
				}
			}
			return true
		}
		for i := 0; i < 3; i++ {
			tick()
		}
		if !allSee(addrs) {
			t.Fatal("mesh did not converge before the partition")
		}
		inc0, _ := gossipState(gs[a], a)

		plan = mustPlan(t, "seed=21;site=cluster.gossip.deliver kind=partition peer="+a)
		for round := 1; ; round++ {
			if round > 12 {
				t.Fatalf("b never convicted a within 12 rounds: %v", gs[b].Alive())
			}
			tick()
			if st, ok := gossipState(gs[b], a); ok && st.State == HealthDead {
				deathRound = round
				break
			}
		}

		plan = nil // heal
		for round := 1; ; round++ {
			if round > 12 {
				t.Fatalf("mesh never reconverged within 12 rounds of healing: a=%v b=%v c=%v",
					gs[a].Alive(), gs[b].Alive(), gs[addrs[2]].Alive())
			}
			tick()
			if allSee(addrs) {
				healRound = round
				break
			}
		}
		// Recovery must be a self-refutation — a's incarnation advanced
		// past the slandered one everywhere — not mere forgetting.
		got, _ := gossipState(gs[b], a)
		if got.Incarnation <= inc0.Incarnation {
			t.Fatalf("a's incarnation at b = %d, want > %d (self-refutation)",
				got.Incarnation, inc0.Incarnation)
		}
		return deathRound, healRound
	}

	d1, h1 := run()
	d2, h2 := run()
	if d1 != d2 || h1 != h2 {
		t.Fatalf("convergence not seed-pinned: run1 death=%d heal=%d, run2 death=%d heal=%d",
			d1, h1, d2, h2)
	}
	// Pin the schedule: a drift here means the seeded gossip/chaos
	// schedule changed and every chaos-matrix expectation moved with it.
	if d1 != 2 || h1 != 2 {
		t.Fatalf("seed-21 schedule moved: death round %d (want 2), heal round %d (want 2)", d1, h1)
	}
}

// High-severity regression: a half-open probe that loses the hedge race
// must be released, never stranded. The owner's circuit is half-open, so
// Dispatch's admission IS the probe; an injected RTT delay stalls it and
// the hedge to the healthy successor wins. The winner's cancel tears the
// probe down with no health verdict to charge — before the fix its
// outcome was simply never read, leaving probing=true forever so every
// future Allow rejected the peer permanently. Now the drain hands the
// slot back (CancelProbe) and the next dispatch re-probes and re-closes.
func TestHedgeWinReleasesLosingHalfOpenProbe(t *testing.T) {
	t.Parallel()
	clk := newFakeNow()
	var ownerCalls atomic.Int64
	slow := resultServer(t, func(*http.Request) { ownerCalls.Add(1) })
	defer slow.Close()
	fast := resultServer(t, nil)
	defer fast.Close()

	// Stall the probe in one injected 200ms round trip (count=1); the
	// hedge to the healthy successor wins long before it resolves, and
	// the spent count clears the fault for the post-heal dispatch.
	owner := normalizeAddr(slow.URL)
	plan := mustPlan(t, fmt.Sprintf(
		"seed=7;site=cluster.forward.rtt kind=latency delay=200ms count=1 peer=%s", owner))
	n := newTestNode(t, "http://self:1", []string{slow.URL, fast.URL}, func(o *Options) {
		o.BreakerThreshold = 1
		o.BreakerCooldown = time.Minute
		o.Now = clk.Now
		o.HedgeDelay = 5 * time.Millisecond
		o.Chaos = plan
	})
	key := keyOwnedBy(t, n, slow.URL)

	// Trip the owner's circuit and elapse the cooldown: the next
	// admitted call is the half-open probe.
	n.breaker.Failure(owner)
	if got := breakerState(n.breaker, owner); got != BreakerOpen {
		t.Fatalf("owner state = %s after trip, want open", got)
	}
	clk.Advance(time.Minute)

	ctx, note := WithRouteNote(context.Background())
	res, handled, err := n.Dispatch(ctx, key, engine.Request{Op: engine.OpWhatIf})
	if err != nil || !handled || res == nil {
		t.Fatalf("Dispatch = (%v, %v, %v), want hedged success", res, handled, err)
	}
	if note.Value() != RouteForwarded {
		t.Fatalf("route = %q, want %q", note.Value(), RouteForwarded)
	}
	if st := n.Status(); st.HedgeWins != 1 {
		t.Fatalf("hedge_wins = %d, want 1", st.HedgeWins)
	}

	// The losing probe must come back: poll the snapshot (which now
	// surfaces Probing exactly so this wedge is observable) until the
	// drain releases the slot. Wedged probing=true here is the bug.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var ownerStatus *BreakerStatus
		for _, bs := range n.breaker.Snapshot() {
			if bs.Peer == owner {
				v := bs
				ownerStatus = &v
			}
		}
		if ownerStatus == nil {
			t.Fatal("owner missing from breaker snapshot")
		}
		if !ownerStatus.Probing {
			if ownerStatus.State != BreakerHalfOpen {
				t.Fatalf("owner state = %s after released probe, want half-open (no verdict charged)", ownerStatus.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never released — circuit wedged: %+v", *ownerStatus)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// With the slot free and the fault cleared, the next dispatch
	// re-probes the owner and the circuit re-closes: the chaos-matrix
	// "every breaker re-closes once faults clear" invariant.
	res2, handled2, err2 := n.Dispatch(context.Background(), key, engine.Request{Op: engine.OpWhatIf})
	if err2 != nil || !handled2 || res2 == nil {
		t.Fatalf("post-heal Dispatch = (%v, %v, %v), want forwarded success", res2, handled2, err2)
	}
	if got := ownerCalls.Load(); got == 0 {
		t.Fatal("post-heal dispatch never reached the owner — probe slot still held")
	}
	if got := breakerState(n.breaker, owner); got != BreakerClosed {
		t.Fatalf("owner state = %s after healed probe, want closed", got)
	}
	if got := n.breaker.recloses.Value(); got != 1 {
		t.Fatalf("recloses = %d, want 1", got)
	}
}
