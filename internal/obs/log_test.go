package obs

import (
	"context"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLogLineShape pins the line New writes: slog's time and level header,
// then msg and the pairs, quoted only where a value needs it.
func TestLogLineShape(t *testing.T) {
	var sink MemSink
	l := New(&sink, slog.LevelInfo)
	l.Info("request served", "trace", "ab12", "status", 200, "dur", 250*time.Millisecond,
		"path", "/v1/what if")
	lines := sink.Lines()
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), lines)
	}
	want := regexp.MustCompile(`^time=\S+ level=INFO msg="request served" trace=ab12 status=200 dur=250ms path="/v1/what if"$`)
	if !want.MatchString(lines[0]) {
		t.Errorf("line = %q\nwant   %s", lines[0], want)
	}
}

func TestLogLevelsFilter(t *testing.T) {
	var sink MemSink
	l := New(&sink, slog.LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := sink.Lines()
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want warn+error only: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "level=WARN") || !strings.Contains(lines[1], "level=ERROR") {
		t.Errorf("unexpected lines: %q", lines)
	}
	ctx := context.Background()
	if l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelWarn) {
		t.Error("Enabled disagrees with the configured level")
	}
}

func TestLogWithBindsFields(t *testing.T) {
	var sink MemSink
	root := New(&sink, slog.LevelInfo)
	child := root.With("component", "engine", "op", "sweep")
	child.Info("computed", "rows", 5)
	line := sink.Lines()[0]
	for _, want := range []string{"component=engine", "op=sweep", "rows=5"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	l := Nop().With("component", "x")
	l.Error("nothing happens")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Error("Nop logger claims to be enabled")
	}
}

// TestLogConcurrent exercises the sink serialization under -race and
// checks no lines interleave.
func TestLogConcurrent(t *testing.T) {
	var sink MemSink
	l := New(&sink, slog.LevelInfo)
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
		if !strings.HasPrefix(line, "time=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("interleaved or malformed line: %q", line)
		}
	}
}

// TestParseLevel pins the values -loglevel accepts on cmd/serve and
// cmd/netsim, by the level's lowercased name, and that anything else
// (slog's own "INFO+1" and numeric spellings too) is refused.
func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "debug", "info": "info", "warn": "warn", "warning": "warn", "error": "error",
		"": "info", "DeBuG": "debug", "  Error\t": "error",
		"trace": "", "info+1": "", "4": "",
	} {
		got, err := ParseLevel(in)
		switch {
		case want == "" && (err == nil || !strings.Contains(err.Error(), "unknown log level")):
			t.Errorf("ParseLevel(%q) = %v, %v; want an unknown-level error", in, got, err)
		case want != "" && (err != nil || strings.ToLower(got.String()) != want):
			t.Errorf("ParseLevel(%q) = %v, %v; want %s", in, got, err, want)
		}
	}
}
