// Package cluster is the peer layer that turns N replicas of cmd/serve
// into one sharded serving surface. Request ownership is decided by a
// consistent-hash ring over the replicas' canonical request keys; peer
// health (alive, draining, dead, queue depth) spreads over a seeded
// deterministic anti-entropy gossip protocol; and cross-replica hops get
// per-hop deadlines, seeded backoff retries, hedged reads, and typed
// graceful degradation — a dead owner demotes the request to a local
// computation instead of an error, because every replica computes the
// same bytes (the engine is deterministic); the ring only decides where
// the cache for a key concentrates, never what the answer is.
package cluster

import (
	"hash/fnv"
	"sort"
	"strings"
)

// vnodes is the virtual-node count per replica: enough that a
// three-replica ring splits keyspace within a few percent of evenly,
// small enough that rebuilding on membership change is trivial.
const vnodes = 64

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	addr string
}

// Ring is an immutable consistent-hash ring over replica addresses.
// Build a new one on membership change (Node caches by gossip version);
// reads are lock-free.
type Ring struct {
	points []ringPoint
	addrs  []string
}

// hash64 is the ring's hash: FNV-64a run through a murmur3-style
// avalanche finalizer. Stable across processes and platforms, so every
// replica maps every key to the same owner. The finalizer matters: ring
// positions come from the hash's full 64-bit ordering, and raw FNV of
// near-identical strings ("replica-0#17" vs "replica-2#17") leaves the
// high bits so correlated that one replica can own most of the keyspace.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over the given addresses with vnodes virtual
// nodes each. Duplicate addresses collapse. An empty address set yields
// an empty ring whose Owner is always "".
func NewRing(addrs []string) *Ring {
	seen := make(map[string]bool, len(addrs))
	r := &Ring{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		r.addrs = append(r.addrs, a)
	}
	sort.Strings(r.addrs)
	var sb strings.Builder
	for _, a := range r.addrs {
		for v := 0; v < vnodes; v++ {
			sb.Reset()
			sb.WriteString(a)
			sb.WriteByte('#')
			// Small decimal without fmt in the build loop.
			sb.WriteString(itoa(v))
			r.points = append(r.points, ringPoint{hash: hash64(sb.String()), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by address so every replica
		// still agrees on the owner.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// itoa renders a small non-negative int.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Members returns the ring's addresses, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.addrs))
	copy(out, r.addrs)
	return out
}

// Len is the number of distinct replicas on the ring.
func (r *Ring) Len() int { return len(r.addrs) }

// Owner returns the replica owning a canonical request key: the first
// virtual node clockwise of the key's hash. "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hash64(key))].addr
}

// search finds the index of the first point at or clockwise of h,
// wrapping to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Successor walks clockwise from the key's owner and returns the first
// replica not in skip — the hedge target, distinct from both the owner
// and the caller. "" when every other replica is skipped.
func (r *Ring) Successor(key string, skip ...string) string {
	if len(r.points) == 0 {
		return ""
	}
	skipped := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipped[s] = true
	}
	start := r.search(hash64(key))
	for i := 1; i <= len(r.points); i++ {
		addr := r.points[(start+i)%len(r.points)].addr
		if !skipped[addr] {
			return addr
		}
	}
	return ""
}
