package jobs

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"time"
)

// Clock abstracts time for the retry machinery so tests can assert exact
// backoff schedules without sleeping.
type Clock interface {
	// Now is the current time (journal timestamps, job bookkeeping).
	Now() time.Time
	// Sleep blocks for d or until the context is done, returning the
	// context's error in the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryPolicy is the per-row retry schedule: exponential backoff with
// deterministic jitter. The jitter for a given (job key, row, attempt)
// tuple is a pure hash, so two runs of the same job — or a resumed run
// replaying a retried row — sleep the identical durations.
type RetryPolicy struct {
	// MaxAttempts is the total tries per row before the row degrades into
	// a typed error marker (default 4; 1 disables retries).
	MaxAttempts int
	// Base is the first backoff delay (default 100ms).
	Base time.Duration
	// Max caps the exponential growth (default 5s).
	Max time.Duration
	// Jitter scales the deterministic jitter: the delay is multiplied by
	// a factor in [1, 1+Jitter). Zero selects the default 0.5; negative
	// disables jitter entirely.
	Jitter float64
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Delay is the backoff before retry number attempt (attempt 1 is the
// delay after the first failure) of the given row. Pure function of the
// policy, key, row, and attempt: deterministic across runs and resumes.
func (p RetryPolicy) Delay(key string, row, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.Max || d < 0 {
			d = p.Max
			break
		}
	}
	if d > p.Max {
		d = p.Max
	}
	if p.Jitter <= 0 {
		return d
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(row))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	// 53 high bits → uniform float in [0,1).
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(d) * (1 + p.Jitter*u))
}
