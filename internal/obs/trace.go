package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// A trace ID is a 16-hex-character opaque token stamped on a request at
// the HTTP edge (or minted at submission for CLI jobs) and carried via
// context through the engine and the job runner, so one request's log
// lines correlate across layers and across a journal-recovered resume.

// traceKey is the context key for the trace ID.
type traceKey struct{}

// traceFallback seeds the non-cryptographic fallback counter.
var traceFallback atomic.Uint64

// NewTraceID returns a fresh 16-hex-char trace ID. IDs come from
// crypto/rand; if that fails (no entropy device), a time-seeded counter
// keeps IDs unique within the process rather than failing the request.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := traceFallback.Add(1)
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano())^(n<<40))
	}
	return hex.EncodeToString(b[:])
}

// WithTraceID returns a context carrying the given trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID extracts the context's trace ID, or "" when none was stamped.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ValidTraceID reports whether a caller-supplied trace ID is safe to
// propagate: 1–64 characters drawn from [0-9a-zA-Z_-]. Anything else
// (header injection, log forgery) is replaced rather than echoed.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
