package main

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/obs"
)

// sinkLines returns the sink's lines that contain every needle.
func sinkLines(sink *obs.MemSink, needles ...string) []string {
	var out []string
outer:
	for _, l := range sink.Lines() {
		for _, n := range needles {
			if !strings.Contains(l, n) {
				continue outer
			}
		}
		out = append(out, l)
	}
	return out
}

func TestTraceIDEchoedWhenSupplied(t *testing.T) {
	srv, sink := newTestServerWithSink(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/whatif?gpus=64", nil)
	req.Header.Set("X-Trace-Id", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "my-trace-42" {
		t.Errorf("X-Trace-Id = %q, want the supplied id echoed", got)
	}
	// The request log line and the engine's cache-miss line carry the
	// same trace — end-to-end correlation across layers.
	if got := sinkLines(sink, `msg=request`, "trace=my-trace-42", "route=/v1/whatif"); len(got) != 1 {
		t.Errorf("want 1 request log line with the trace, got %q", got)
	}
	if got := sinkLines(sink, `msg="cache miss"`, "trace=my-trace-42", "component=engine"); len(got) != 1 {
		t.Errorf("want 1 engine cache-miss line with the trace, got %q", got)
	}
}

func TestTraceIDGeneratedWhenAbsentOrInvalid(t *testing.T) {
	srv, _ := newTestServerWithSink(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Trace-Id")
	if len(got) != 16 || !obs.ValidTraceID(got) {
		t.Errorf("generated X-Trace-Id = %q, want 16 valid chars", got)
	}

	// An unsafe id (header/log injection) is replaced, not echoed.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set("X-Trace-Id", `evil"id with spaces`)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); !obs.ValidTraceID(got) || strings.Contains(got, "evil") {
		t.Errorf("unsafe trace id echoed back as %q", got)
	}
}

func TestRequestLogLineShape(t *testing.T) {
	srv, sink := newTestServerWithSink(t)
	resp, err := http.Get(srv.URL + "/v1/whatif?gpus=128")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lines := sinkLines(sink, "msg=request")
	if len(lines) != 1 {
		t.Fatalf("got %d request lines, want 1: %q", len(lines), lines)
	}
	for _, want := range []string{
		"component=http", "trace=", "method=GET", "route=/v1/whatif",
		"path=/v1/whatif", "status=200", "bytes=", "dur=",
	} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("request line %q missing %q", lines[0], want)
		}
	}
	if strings.Contains(lines[0], "bytes=0") {
		t.Errorf("request line reports zero bytes for a JSON body: %q", lines[0])
	}
}

func TestPanicPathLogsTraceID(t *testing.T) {
	srv, sink := newTestServerWithSink(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/scenarios/chaos?panic=1", nil)
	req.Header.Set("X-Trace-Id", "trace-panic-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	// The engine contains the panic and logs it under the request trace;
	// the request line records the resulting 500 under the same trace.
	if got := sinkLines(sink, `msg="panic recovered in computation"`, "trace=trace-panic-9"); len(got) != 1 {
		t.Errorf("want 1 engine panic line with the trace, got %q", got)
	}
	if got := sinkLines(sink, "msg=request", "trace=trace-panic-9", "status=500"); len(got) != 1 {
		t.Errorf("want 1 request line with trace and status 500, got %q", got)
	}
}

func TestHandlerPanicLogsTraceID(t *testing.T) {
	var sink obs.MemSink
	logger := obs.New(&sink, slog.LevelDebug)
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Registry: reg})
	s := newServer(eng, nil, time.Minute, logger, reg)
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler boom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/boom", nil)
	req.Header.Set("X-Trace-Id", "trace-boom-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := sinkLines(&sink, `msg="panic in handler"`, "trace=trace-boom-1"); len(got) != 1 {
		t.Errorf("want 1 handler panic line with the trace, got %q", got)
	}
}

// TestClientDisconnectCountsCanceled verifies the satellite bugfix: a
// client that disconnects mid-request aborts the queued/running engine
// work promptly and counts as canceled — not as a deadline.
func TestClientDisconnectCountsCanceled(t *testing.T) {
	s, eng := newWiredServer(engine.Options{}, time.Minute)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/v1/scenarios/chaos?sleep=30", nil)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait for the computation to be admitted, then hang up.
	deadline := time.After(5 * time.Second)
	for eng.Pending() == 0 {
		select {
		case <-deadline:
			t.Fatal("computation never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
	// The engine observes the disconnect promptly — well before the
	// 30-second sleep or the 60-second server timeout.
	deadline = time.After(5 * time.Second)
	for metric(t, s.reg, "netpowerprop_engine_canceled_total") == 0 {
		select {
		case <-deadline:
			t.Fatal("canceled never counted")
		case <-time.After(time.Millisecond):
		}
	}
	canceled := metric(t, s.reg, "netpowerprop_engine_canceled_total")
	deadlines := metric(t, s.reg, "netpowerprop_engine_deadline_total")
	if canceled != 1 || deadlines != 0 {
		t.Errorf("canceled=%v deadlines=%v, want 1 and 0", canceled, deadlines)
	}
}
