package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/admit"
	"netpowerprop/internal/cluster"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/obs"
)

// replica is one clustered test server: HTTP listener, engine, node.
type replica struct {
	ts   *httptest.Server
	srv  *server
	eng  *engine.Engine
	node *cluster.Node
}

// newTestCluster starts n replicas peered with each other over real
// HTTP. Gossip loops are not started — membership is static — and
// hedging is off so tests exercise one deterministic forward path.
// mutate (optional) adjusts each server before its node is attached.
func newTestCluster(t *testing.T, n int, mutate func(i int, r *replica)) []*replica {
	t.Helper()
	reps := make([]*replica, n)
	for i := range reps {
		logger := obs.Nop()
		reg := obs.NewRegistry()
		eng := engine.New(engine.Options{Logger: logger, Registry: reg})
		srv := newServer(eng, nil, time.Minute, logger, reg)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		reps[i] = &replica{ts: ts, srv: srv, eng: eng}
	}
	for i, r := range reps {
		if mutate != nil {
			mutate(i, r)
		}
		var peers []string
		for j, other := range reps {
			if j != i {
				peers = append(peers, other.ts.URL)
			}
		}
		r.node = cluster.New(cluster.Options{
			Self:       r.ts.URL,
			Peers:      peers,
			Seed:       5,
			HedgeDelay: -1,
			Retry:      jobs.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Max: time.Millisecond, Jitter: -1},
			Logger:     obs.Nop(),
		})
		r.srv.cluster = r.node
		r.eng.SetRemote(r.node.Dispatch)
	}
	return reps
}

// whatifOwnedBy finds a gpus value whose canonical whatif key the ring
// assigns to the given replica.
func whatifOwnedBy(t *testing.T, n *cluster.Node, owner string) int {
	t.Helper()
	for g := 1; g <= 100000; g++ {
		req, err := engine.Request{Op: engine.OpWhatIf, GPUs: g * 8}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if n.Ring().Owner(req.Key()) == owner {
			return g * 8
		}
	}
	t.Fatalf("no whatif request owned by %s", owner)
	return 0
}

func TestClusterForwardsMissToOwnerAndReportsRoute(t *testing.T) {
	reps := newTestCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	gpus := whatifOwnedBy(t, a.node, b.ts.URL)
	resp, err := http.Get(fmt.Sprintf("%s/v1/whatif?gpus=%d", a.ts.URL, gpus))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cluster-Route"); got != cluster.RouteForwarded {
		t.Fatalf("X-Cluster-Route = %q, want %q", got, cluster.RouteForwarded)
	}
	var env apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Result == nil || env.Result.Cluster == nil {
		t.Fatalf("forwarded response missing result payload: %+v", env)
	}
	// The owner computed it; the ingress replica only proxied and primed.
	if got := metric(t, b.srv.reg, "netpowerprop_engine_computations_total"); got != 1 {
		t.Fatalf("owner computations = %v, want 1", got)
	}
	comps := metric(t, a.srv.reg, "netpowerprop_engine_computations_total")
	remote := metric(t, a.srv.reg, "netpowerprop_engine_remote_hits_total")
	if comps != 0 || remote != 1 {
		t.Fatalf("ingress computations=%v remote_hits=%v, want 0 and 1", comps, remote)
	}
	// Second identical request at the ingress is a primed cache hit — no
	// second hop.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/whatif?gpus=%d", a.ts.URL, gpus))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", resp2.Header.Get("X-Cache"))
	}
	if got := a.node.Status().Forwarded; got != 1 {
		t.Fatalf("forwarded counter = %d, want 1", got)
	}
}

func TestClusterSelfOwnedKeyStaysLocal(t *testing.T) {
	reps := newTestCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	gpus := whatifOwnedBy(t, a.node, a.ts.URL)
	resp, err := http.Get(fmt.Sprintf("%s/v1/whatif?gpus=%d", a.ts.URL, gpus))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cluster-Route"); got != cluster.RouteLocal {
		t.Fatalf("X-Cluster-Route = %q, want %q", got, cluster.RouteLocal)
	}
	if got := metric(t, b.srv.reg, "netpowerprop_engine_computations_total"); got != 0 {
		t.Fatalf("peer computed %v, want 0", got)
	}
}

// TestClusterForwardedAdmitChargesQuotaOnce is the double-billing
// regression test: a proxied hop carries X-Forwarded-Admit and the
// owner must not charge the tenant's quota a second time (the ingress
// replica already did), while direct clients keep being charged.
func TestClusterForwardedAdmitChargesQuotaOnce(t *testing.T) {
	reps := newTestCluster(t, 2, func(_ int, r *replica) {
		// 2-row burst, no refill to speak of: the third charged row trips.
		r.srv.admit = admit.New(admit.Options{RatePerSec: 0.001, Burst: 2,
			Capacity: r.eng.Capacity(), Pending: r.eng.Pending})
	})
	a, b := reps[0], reps[1]
	// Three distinct cache-missing requests, all owned by B, all entering
	// at A: A charges its quota 3 times... so give A its own headroom.
	a.srv.admit = admit.New(admit.Options{Capacity: a.eng.Capacity(), Pending: a.eng.Pending})
	sent := 0
	for g := 1; g <= 100000 && sent < 3; g++ {
		req, err := engine.Request{Op: engine.OpWhatIf, GPUs: g * 8}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if a.node.Ring().Owner(req.Key()) != b.ts.URL {
			continue
		}
		sent++
		resp, err := http.Get(fmt.Sprintf("%s/v1/whatif?gpus=%d", a.ts.URL, g*8))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// B's burst is 2; if forwarded hops were billed at B, the third
		// forward would bounce with 429 and the ingress would degrade.
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded request %d: status %d (owner double-billed admission?)", sent, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cluster-Route"); got != cluster.RouteForwarded {
			t.Fatalf("forwarded request %d: route %q", sent, got)
		}
	}
	// Direct clients at B still pay: burst 2, so the third direct
	// cache-missing request must be quota-rejected.
	statuses := []int{}
	for g := 0; g < 3; g++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/whatif?gpus=%d", b.ts.URL, 104+8*g))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
	}
	if statuses[0] != 200 || statuses[1] != 200 || statuses[2] != http.StatusTooManyRequests {
		t.Fatalf("direct statuses = %v, want [200 200 429]", statuses)
	}
}

// TestClusterForwardedHopNeverReforwards guards against proxy loops: a
// hop carrying X-Forwarded-Admit must compute locally even when the
// receiver's ring says a third replica owns the key.
func TestClusterForwardedHopNeverReforwards(t *testing.T) {
	reps := newTestCluster(t, 3, nil)
	a, b, c := reps[0], reps[1], reps[2]
	gpus := whatifOwnedBy(t, a.node, c.ts.URL)
	// Simulate a stale-ring mis-forward: deliver C's key to B with the
	// forwarded marker. B must answer it itself, not bounce it onward.
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/whatif?gpus=%d", b.ts.URL, gpus), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Forwarded-Admit", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cluster-Route"); got != cluster.RouteLocal {
		t.Fatalf("X-Cluster-Route = %q, want %q (local-only pin)", got, cluster.RouteLocal)
	}
	if got := metric(t, b.srv.reg, "netpowerprop_engine_computations_total"); got != 1 {
		t.Fatalf("receiver computations = %v, want 1", got)
	}
	if got := metric(t, c.srv.reg, "netpowerprop_engine_computations_total"); got != 0 {
		t.Fatalf("true owner computations = %v, want 0 (no onward hop)", got)
	}
}

// TestSingleNodeIgnoresForwardedAdmitHeader: outside cluster mode the
// header is an unauthenticated quota bypass and must be ignored.
func TestSingleNodeIgnoresForwardedAdmitHeader(t *testing.T) {
	logger := obs.Nop()
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Logger: logger, Registry: reg})
	srv := newServer(eng, nil, time.Minute, logger, reg)
	srv.admit = admit.New(admit.Options{RatePerSec: 0.001, Burst: 1,
		Capacity: eng.Capacity(), Pending: eng.Pending})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	statuses := []int{}
	for g := 0; g < 2; g++ {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/whatif?gpus=%d", ts.URL, 1024+8*g), nil)
		req.Header.Set("X-Forwarded-Admit", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
	}
	if statuses[0] != 200 || statuses[1] != http.StatusTooManyRequests {
		t.Fatalf("statuses = %v, want [200 429]: header must not bypass quota outside cluster mode", statuses)
	}
}

func TestClusterStatusAndGossipEndpoints(t *testing.T) {
	reps := newTestCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	var st cluster.Status
	getJSON(t, a.ts.URL+"/v1/cluster", &st)
	if st.Self != a.ts.URL {
		t.Fatalf("status self = %q, want %q", st.Self, a.ts.URL)
	}
	if len(st.RingMembers) != 2 {
		t.Fatalf("ring members = %v, want both replicas", st.RingMembers)
	}
	// Push a digest with a load hint from B; A must merge and reply with
	// its own table.
	d := cluster.Digest{From: b.ts.URL, Peers: []cluster.PeerState{{
		Addr: b.ts.URL, Incarnation: 1, Heartbeat: 9, State: cluster.HealthAlive, QueueDepth: 7,
	}}}
	body, _ := json.Marshal(d)
	resp, err := http.Post(a.ts.URL+"/v1/cluster/gossip", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gossip status %d", resp.StatusCode)
	}
	var reply cluster.Digest
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.From != a.ts.URL || len(reply.Peers) != 2 {
		t.Fatalf("gossip reply = %+v", reply)
	}
	var merged *cluster.PeerState
	for i := range reply.Peers {
		if reply.Peers[i].Addr == b.ts.URL {
			merged = &reply.Peers[i]
		}
	}
	if merged == nil || merged.QueueDepth != 7 || merged.Heartbeat != 9 {
		t.Fatalf("digest not merged into reply: %+v", merged)
	}
}

func TestClusterEndpointsDisabledOutsideClusterMode(t *testing.T) {
	ts := newTestServer(t)
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(ts.URL + "/v1/cluster") },
		func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/cluster/gossip", "application/json", strings.NewReader("{}"))
		},
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
	}
}

// streamLines reads one NDJSON stream, returning the raw data lines and
// stopping after limit rows when limit >= 0 (the end frame is dropped).
func streamLines(t *testing.T, resp *http.Response, limit int) []string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"end":true`) {
			return lines
		}
		lines = append(lines, line)
		if limit >= 0 && len(lines) >= limit {
			return lines
		}
	}
	if err := sc.Err(); err != nil && limit < 0 {
		t.Fatalf("stream read: %v", err)
	}
	return lines
}

// TestClusterStreamFailoverResumesByteIdentical is the kill-mid-stream
// contract: a client cut off partway through replica A's NDJSON stream
// resumes on replica B with Last-Row, and the concatenation is
// byte-identical to one uninterrupted stream.
func TestClusterStreamFailoverResumesByteIdentical(t *testing.T) {
	reps := newTestCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	const path = "/v1/sweep?steps=24&stream=1"

	// Golden: the uninterrupted stream (from B — both replicas compute
	// identical bytes, which is the whole premise).
	goldenResp, err := http.Get(b.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	golden := streamLines(t, goldenResp, -1)
	if len(golden) < 10 {
		t.Fatalf("golden stream too short: %d rows", len(golden))
	}

	// Interrupted run: take the first 10 rows from A, then kill A with
	// the stream open.
	interruptedResp, err := http.Get(a.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	head := streamLines(t, interruptedResp, 10)
	a.ts.CloseClientConnections()
	a.ts.Close()

	// Failover: resume against B from the last row received.
	req, err := http.NewRequest(http.MethodGet, b.ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Row", strconv.Itoa(len(head)-1))
	resumeResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := streamLines(t, resumeResp, -1)

	combined := strings.Join(append(append([]string{}, head...), tail...), "\n")
	want := strings.Join(golden, "\n")
	if combined != want {
		t.Fatalf("failover stream not byte-identical:\n got: %.200s...\nwant: %.200s...", combined, want)
	}
}
