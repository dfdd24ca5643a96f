// Package obs is the repo's dependency-free observability kit: a leveled
// structured logger (key=value lines, injectable sink), trace-ID
// generation with context propagation, lock-free fixed-bucket latency
// histograms, and a metric registry that renders real Prometheus text
// exposition (# HELP / # TYPE, counters, gauges, histograms). cmd/serve,
// internal/engine, and internal/jobs all emit through this package, so
// one request carries one trace ID from the HTTP edge through the engine
// and the job runner, and /metrics speaks one consistent,
// scrape-able namespace.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

const (
	// LevelDebug: per-event detail (cache hits, queue waits).
	LevelDebug Level = iota
	// LevelInfo: one line per unit of served work (request, row, job).
	LevelInfo
	// LevelWarn: degraded but handled (retry, shed, deadline).
	LevelWarn
	// LevelError: contained failures (panics, exhausted retries).
	LevelError
	// levelOff disables all output; used by Nop.
	levelOff
)

// String renders the level the way log lines spell it.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "off"
}

// ParseLevel maps a flag value onto a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// Logger writes leveled key=value lines to a sink. Loggers derived with
// With share the parent's sink, level, and clock. The zero Logger is not
// usable; construct with New or Nop.
type Logger struct {
	core   *logCore
	fields string // pre-rendered " k=v k=v" bound by With
}

// logCore is the state shared by a Logger and everything derived from it.
type logCore struct {
	mu    sync.Mutex
	w     io.Writer
	level Level // fixed at construction
	now   func() time.Time
}

// New builds a logger writing to w at the given minimum level. The sink
// is any io.Writer; writes are serialized, so tests can hand in a plain
// buffer and read whole lines back.
func New(w io.Writer, level Level) *Logger {
	return &Logger{core: &logCore{w: w, level: level, now: time.Now}}
}

// Nop is a logger that discards everything at zero cost.
func Nop() *Logger {
	return &Logger{core: &logCore{w: io.Discard, level: levelOff, now: time.Now}}
}

// Enabled reports whether lines at the given level would be written —
// the guard for callers that want to skip building debug attributes.
func (l *Logger) Enabled(level Level) bool {
	return level >= l.core.level
}

// With returns a logger that appends the given key/value pairs to every
// line it writes. Pairs are rendered once, at With time.
func (l *Logger) With(kv ...any) *Logger {
	if len(kv) == 0 {
		return l
	}
	var b strings.Builder
	b.WriteString(l.fields)
	appendPairs(&b, kv)
	return &Logger{core: l.core, fields: b.String()}
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// log renders one line: ts=<RFC3339Nano> level=<level> msg=<msg> k=v...
func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.Grow(64 + len(msg) + len(l.fields) + 16*len(kv))
	b.WriteString("ts=")
	b.WriteString(l.core.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	appendValue(&b, msg)
	b.WriteString(l.fields)
	appendPairs(&b, kv)
	b.WriteByte('\n')
	l.core.mu.Lock()
	defer l.core.mu.Unlock()
	io.WriteString(l.core.w, b.String())
}

// appendPairs renders alternating key/value arguments; a trailing
// unpaired key is rendered with the placeholder value "(MISSING)".
func appendPairs(b *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		if i+1 < len(kv) {
			appendValue(b, kv[i+1])
		} else {
			b.WriteString("(MISSING)")
		}
	}
}

// appendValue renders one value, quoting strings that contain spaces,
// quotes, or '=' so lines stay machine-splittable on spaces.
func appendValue(b *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		appendString(b, x)
	case error:
		appendString(b, x.Error())
	case time.Duration:
		b.WriteString(x.String())
	case int:
		b.WriteString(strconv.Itoa(x))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case bool:
		b.WriteString(strconv.FormatBool(x))
	default:
		appendString(b, fmt.Sprint(v))
	}
}

// appendString quotes only when needed.
func appendString(b *strings.Builder, s string) {
	if s != "" && !strings.ContainsAny(s, " \t\n\"=") {
		b.WriteString(s)
		return
	}
	b.WriteString(strconv.Quote(s))
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

// String returns the raw accumulated text.
func (s *MemSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}
