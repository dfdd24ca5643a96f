package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock pins log timestamps for shape assertions.
func fixedClock(l *Logger) {
	l.core.now = func() time.Time {
		return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	}
}

func TestLogLineShape(t *testing.T) {
	var sink MemSink
	l := New(&sink, LevelInfo)
	fixedClock(l)
	l.Info("request served", "trace", "ab12", "status", 200, "dur", 250*time.Millisecond,
		"path", "/v1/what if")
	lines := sink.Lines()
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), lines)
	}
	want := `ts=2026-08-06T12:00:00Z level=info msg="request served" trace=ab12 status=200 dur=250ms path="/v1/what if"`
	if lines[0] != want {
		t.Errorf("line = %q\nwant   %q", lines[0], want)
	}
}

func TestLogLevelsFilter(t *testing.T) {
	var sink MemSink
	l := New(&sink, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := sink.Lines()
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want warn+error only: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Errorf("unexpected lines: %q", lines)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) {
		t.Error("Enabled disagrees with the configured level")
	}
}

func TestLogWithBindsFields(t *testing.T) {
	var sink MemSink
	root := New(&sink, LevelInfo)
	child := root.With("component", "engine", "op", "sweep")
	child.Info("computed", "rows", 5)
	line := sink.Lines()[0]
	for _, want := range []string{"component=engine", "op=sweep", "rows=5"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestLogOddPairsAndNonStringValues(t *testing.T) {
	var sink MemSink
	l := New(&sink, LevelInfo)
	l.Info("odd", "key") // trailing key without a value must not panic
	line := sink.Lines()[0]
	if !strings.Contains(line, "key=(MISSING)") {
		t.Errorf("odd pair rendered as %q", line)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	l := Nop()
	l.Error("nothing happens")
	if l.Enabled(LevelError) {
		t.Error("Nop logger claims to be enabled")
	}
}

// TestLogConcurrent exercises the sink serialization under -race and
// checks no lines interleave.
func TestLogConcurrent(t *testing.T) {
	var sink MemSink
	l := New(&sink, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("tick", "goroutine", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := sink.Lines()
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("interleaved or malformed line: %q", line)
		}
	}
}
