// Package obs is the repo's dependency-free observability kit: the one
// constructor of the log/slog loggers every component writes key=value
// lines through (plus a level parser and an in-memory sink for tests),
// trace-ID generation with context propagation, lock-free fixed-bucket
// latency histograms, and a metric registry that renders real Prometheus
// text exposition (# HELP / # TYPE, counters, gauges, histograms).
// cmd/serve, internal/engine, and internal/jobs all emit through this
// package, so one request carries one trace ID from the HTTP edge through
// the engine and the job runner, and /metrics speaks one consistent,
// scrape-able namespace.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
)

// New builds a logger writing slog's key=value text lines to w at the
// given minimum level. Writes are serialized, so tests can hand in a
// MemSink and read whole lines back.
func New(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Nop is a logger that discards everything. It is enabled at no level, so
// guarded call sites skip building their attributes. (slog.DiscardHandler
// would do, but needs Go 1.24.)
func Nop() *slog.Logger {
	return New(io.Discard, slog.Level(math.MaxInt))
}

// ParseLevel maps a -loglevel flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// MemSink is an in-memory log sink for tests: an io.Writer that splits
// what it receives into lines and hands them back under a lock.
type MemSink struct {
	mu  sync.Mutex
	buf strings.Builder
}

// Write implements io.Writer.
func (s *MemSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// Lines returns every complete line written so far.
func (s *MemSink) Lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	text := strings.TrimSuffix(s.buf.String(), "\n")
	if text == "" {
		return nil
	}
	return strings.Split(text, "\n")
}
