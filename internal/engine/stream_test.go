package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// A streamed request emits one frame per plan row, in order, with row
// bytes identical to what ExecRow produces, and returns a Result
// byte-identical to the non-streaming path.
func TestStreamMatchesDo(t *testing.T) {
	for _, req := range []Request{
		{Op: OpSweep, Steps: 4},
		{Op: OpTable3},
		{Op: OpWhatIf}, // single-row fallback plan
	} {
		req := req
		t.Run(string(req.Op), func(t *testing.T) {
			streamed := New(Options{})
			var order []int
			var frames []json.RawMessage
			res, err := streamed.Stream(context.Background(), req, func(i int, data json.RawMessage) error {
				order = append(order, i)
				frames = append(frames, append(json.RawMessage(nil), data...))
				return nil
			})
			if err != nil {
				t.Fatalf("Stream: %v", err)
			}
			plan, err := streamed.Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != plan.Rows() {
				t.Fatalf("got %d frames, plan has %d rows", len(frames), plan.Rows())
			}
			for i, want := range order {
				if i != want {
					t.Fatalf("frame order %v, want ascending from 0", order)
				}
			}
			// Frames must reassemble into the exact result.
			re, err := plan.Assemble(frames, nil)
			if err != nil {
				t.Fatalf("Assemble(frames): %v", err)
			}
			gotJSON, _ := json.Marshal(res)
			reJSON, _ := json.Marshal(re)
			if string(gotJSON) != string(reJSON) {
				t.Error("assembled frames differ from streamed result")
			}
			want := do(t, New(Options{}), req)
			wantJSON, _ := json.Marshal(want)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("streamed result differs from Do:\nstream: %s\n    do: %s", gotJSON, wantJSON)
			}
			// The assembled result is primed: a follow-up Do is a hit.
			if _, cached, err := streamed.Do(context.Background(), req); err != nil || !cached {
				t.Errorf("post-stream Do cached=%v err=%v, want cache hit", cached, err)
			}
			if streamed.streams.Value() != 1 || streamed.streamRows.Value() != uint64(plan.Rows()) {
				t.Errorf("streams=%d streamRows=%d, want 1/%d", streamed.streams.Value(), streamed.streamRows.Value(), plan.Rows())
			}
		})
	}
}

// Canceling mid-stream counts as canceled (not a deadline), releases the
// stream's queue slot, and leaves the engine drainable.
func TestStreamCancelMidStream(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := Request{Op: OpScenario, Scenario: "chaos", Params: map[string]float64{"rows": 6}}
	seen := 0
	_, err := e.Stream(ctx, req, func(i int, data json.RawMessage) error {
		seen++
		if i == 1 {
			cancel() // client disconnects after the second row
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream after cancel = %v, want context.Canceled", err)
	}
	if seen < 2 || seen >= 6 {
		t.Fatalf("saw %d rows, want at least 2 and fewer than 6", seen)
	}
	if e.canceled.Value() != 1 || e.deadlines.Value() != 0 {
		t.Errorf("canceled=%d deadlines=%d, want 1/0", e.canceled.Value(), e.deadlines.Value())
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after canceled stream, want 0", e.Pending())
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	if err := e.Drain(dctx); err != nil {
		t.Fatalf("drain after canceled stream: %v", err)
	}
}

// A deadline expiring mid-stream is classified as a deadline.
func TestStreamDeadlineMidStream(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req := Request{Op: OpScenario, Scenario: "chaos",
		Params: map[string]float64{"rows": 2, "sleep": 5}}
	_, err := e.Stream(ctx, req, func(int, json.RawMessage) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Stream = %v, want DeadlineExceeded", err)
	}
	if e.deadlines.Value() != 1 || e.canceled.Value() != 0 {
		t.Errorf("deadlines=%d canceled=%d, want 1/0", e.deadlines.Value(), e.canceled.Value())
	}
}

// A sink that fails (broken pipe to the client) aborts the stream and is
// counted as a cancellation.
func TestStreamEmitError(t *testing.T) {
	e := New(Options{})
	req := Request{Op: OpSweep, Steps: 4}
	_, err := e.Stream(context.Background(), req, func(i int, _ json.RawMessage) error {
		if i == 2 {
			return fmt.Errorf("write tcp: broken pipe")
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream with failing sink = %v, want context.Canceled", err)
	}
	if e.canceled.Value() != 1 {
		t.Errorf("canceled = %d, want 1", e.canceled.Value())
	}
}

// A failing row aborts the stream with the row's error.
func TestStreamRowFailure(t *testing.T) {
	e := New(Options{})
	req := Request{Op: OpScenario, Scenario: "chaos",
		Params: map[string]float64{"rows": 4, "failrow": 2}}
	emitted := 0
	_, err := e.Stream(context.Background(), req, func(int, json.RawMessage) error {
		emitted++
		return nil
	})
	if err == nil {
		t.Fatal("stream over failing row succeeded")
	}
	if emitted != 2 {
		t.Errorf("emitted %d rows before failure, want 2", emitted)
	}
}

// Streams are admitted against the bounded queue like any other request.
func TestStreamShedUnderOverload(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 1})
	go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.15}))  //nolint:errcheck
	go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.151})) //nolint:errcheck
	waitPending(t, e, 2)
	_, err := e.Stream(context.Background(), Request{Op: OpSweep, Steps: 4},
		func(int, json.RawMessage) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Stream under overload = %v, want ErrOverloaded", err)
	}
	if e.sheds.Value() != 1 {
		t.Errorf("sheds = %d, want 1", e.sheds.Value())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Stream runs its rows through ExecRow, so the row counters see every
// streamed row exactly once.
func TestStreamCountsRowsExecuted(t *testing.T) {
	e := New(Options{})
	frames := 0
	_, err := e.Stream(context.Background(), Request{Op: OpSweep, Steps: 4}, func(int, json.RawMessage) error {
		frames++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 || e.rowsExecuted.Value() != uint64(frames) {
		t.Errorf("RowsExecuted = %d, want the %d streamed rows", e.rowsExecuted.Value(), frames)
	}
}
