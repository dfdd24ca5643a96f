package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Retry-budget tuning: each initial forward earns a tenth of a retry
// token, capped at a burst of 10 — roughly "one retry per ten requests,
// plus a small reserve".
const (
	retryBudgetRatio = 0.1
	retryBudgetBurst = 10
)

// RetryBudget is a per-peer token bucket on cross-replica retries.
// Every initial forward attempt to a peer deposits ratio tokens (capped
// at burst); every retry spends one. When a peer's bucket is empty the
// retry is refused and the caller degrades to local compute instead —
// a sick peer therefore costs the fleet at most ratio extra traffic,
// never a synchronized retry storm. Buckets start full so low-traffic
// clusters can still retry.
type RetryBudget struct {
	// ratio and burst are retryBudgetRatio and retryBudgetBurst; tests
	// in this package lower them to reach exhaustion in a few calls.
	ratio float64
	burst float64

	mu     sync.Mutex
	tokens map[string]float64

	exhausted atomic.Uint64
}

// NewRetryBudget builds a RetryBudget with every bucket full.
func NewRetryBudget() *RetryBudget {
	return &RetryBudget{ratio: retryBudgetRatio, burst: retryBudgetBurst, tokens: make(map[string]float64)}
}

func (b *RetryBudget) bucket(peer string) float64 {
	t, ok := b.tokens[peer]
	if !ok {
		t = b.burst
		b.tokens[peer] = t
	}
	return t
}

// Deposit credits peer's bucket for one initial (non-retry) attempt.
func (b *RetryBudget) Deposit(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.bucket(peer) + b.ratio; t < b.burst {
		b.tokens[peer] = t
	} else {
		b.tokens[peer] = b.burst
	}
}

// Spend withdraws one retry token for peer. False means the budget is
// exhausted and the retry must not happen.
func (b *RetryBudget) Spend(peer string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.bucket(peer); t >= 1 {
		b.tokens[peer] = t - 1
		return true
	}
	b.exhausted.Add(1)
	return false
}

// Exhausted counts refused retries across all peers.
func (b *RetryBudget) Exhausted() uint64 { return b.exhausted.Load() }

// BudgetStatus is one peer's retry balance in /v1/cluster.
type BudgetStatus struct {
	Peer   string  `json:"peer"`
	Tokens float64 `json:"tokens"`
}

// Snapshot lists every tracked peer's balance, sorted by address.
func (b *RetryBudget) Snapshot() []BudgetStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BudgetStatus, 0, len(b.tokens))
	for peer, t := range b.tokens {
		out = append(out, BudgetStatus{Peer: peer, Tokens: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
