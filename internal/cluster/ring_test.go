package cluster

import (
	"fmt"
	"testing"
)

// replicas returns n synthetic replica addresses.
func replicas(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return out
}

// keys returns n synthetic canonical request keys.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`{"op":"whatif","gpus":%d}`, i)
	}
	return out
}

func TestRingOwnerIsDeterministicAcrossBuilds(t *testing.T) {
	addrs := replicas(3)
	a := NewRing(addrs)
	// Same members presented shuffled and with duplicates: same ring.
	b := NewRing([]string{addrs[2], addrs[0], addrs[1], addrs[0], ""})
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("Len = %d, %d, want 3", a.Len(), b.Len())
	}
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q differs across equal rings: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingOwnerPinned pins the owner of fixed keys on a fixed ring. Every
// replica of a fleet must map a key to the same owner, so a change to the
// hash or the vnode labels ("addr#v") that moves keys must fail here
// before replicas running mixed versions split key ownership.
func TestRingOwnerPinned(t *testing.T) {
	r, ks := NewRing(replicas(3)), keys(8)
	for i, want := range []string{
		"http://replica-1:8080", "http://replica-0:8080", "http://replica-2:8080", "http://replica-1:8080",
		"http://replica-2:8080", "http://replica-1:8080", "http://replica-0:8080", "http://replica-1:8080",
	} {
		if got := r.Owner(ks[i]); got != want {
			t.Errorf("Owner(%s) = %s, want %s", ks[i], got, want)
		}
	}
}

func TestRingSpreadsKeysRoughlyEvenly(t *testing.T) {
	r := NewRing(replicas(3))
	counts := make(map[string]int)
	const total = 3000
	for _, k := range keys(total) {
		counts[r.Owner(k)]++
	}
	if len(counts) != 3 {
		t.Fatalf("keys landed on %d replicas, want 3: %v", len(counts), counts)
	}
	for addr, c := range counts {
		// A fair split is 1000 per replica; vnode placement noise should
		// stay well inside a factor of two.
		if c < total/6 || c > total/2 {
			t.Fatalf("replica %s owns %d of %d keys — outside [%d, %d]: %v",
				addr, c, total, total/6, total/2, counts)
		}
	}
}

func TestRingRemapMovesOnlyDepartedKeys(t *testing.T) {
	addrs := replicas(3)
	full := NewRing(addrs)
	reduced := NewRing(addrs[:2])
	moved := 0
	for _, k := range keys(2000) {
		before, after := full.Owner(k), reduced.Owner(k)
		if before != addrs[2] {
			// Consistent hashing's contract: removing a replica must not
			// move keys between the survivors.
			if after != before {
				t.Fatalf("key %q moved %s -> %s though %s survived", k, before, after, before)
			}
			continue
		}
		moved++
		if after == addrs[2] {
			t.Fatalf("key %q still owned by removed replica", k)
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed replica — degenerate test")
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring Owner = %q, want \"\"", got)
	}
	if got := empty.Successor("k"); got != "" {
		t.Fatalf("empty ring Successor = %q, want \"\"", got)
	}
	solo := NewRing([]string{"http://only:1"})
	if got := solo.Owner("k"); got != "http://only:1" {
		t.Fatalf("solo Owner = %q", got)
	}
	if got := solo.Successor("k", "http://only:1"); got != "" {
		t.Fatalf("solo Successor skipping owner = %q, want \"\"", got)
	}
}

func TestRingSuccessorSkipsOwnerAndCaller(t *testing.T) {
	addrs := replicas(3)
	r := NewRing(addrs)
	for _, k := range keys(200) {
		owner := r.Owner(k)
		for _, caller := range addrs {
			succ := r.Successor(k, owner, caller)
			if succ == owner || succ == caller {
				t.Fatalf("Successor(%q, skip %s, %s) = %q — did not skip", k, owner, caller, succ)
			}
			if caller != owner && succ == "" {
				t.Fatalf("Successor(%q) empty with a third replica available", k)
			}
		}
	}
}
