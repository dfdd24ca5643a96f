package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/admit"
	"netpowerprop/internal/core"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/obs"
)

// postBatch submits a /v1/batch body and decodes the response.
func postBatch(t *testing.T, url, body string) (batchResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return br, resp
}

// ndjsonFrames reads an NDJSON body into raw lines.
func ndjsonFrames(t *testing.T, body io.Reader) []json.RawMessage {
	t.Helper()
	var frames []json.RawMessage
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		frames = append(frames, append(json.RawMessage(nil), line...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan NDJSON: %v", err)
	}
	return frames
}

// Batch rows answer with the same result JSON as the synchronous
// endpoints, with duplicates collapsed and cache hits marked.
func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	// Warm the cache with one synchronous request.
	var warm struct {
		Result json.RawMessage `json:"result"`
	}
	getJSON(t, srv.URL+"/v1/whatif?gpus=1024", &warm)

	body := `{"requests":[
		{"op":"whatif","gpus":1024},
		{"op":"whatif"},
		{"op":"whatif"},
		{"op":"cost"}
	]}`
	br, resp := postBatch(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	if br.Rows != 4 || len(br.Items) != 4 || br.Errors != 0 {
		t.Fatalf("rows=%d items=%d errors=%d, want 4/4/0", br.Rows, len(br.Items), br.Errors)
	}
	if !br.Items[0].Cached || br.Cached != 1 {
		t.Errorf("warmed row not served from cache: %+v (cached=%d)", br.Items[0], br.Cached)
	}
	if br.Items[1].Shared || !br.Items[2].Shared {
		t.Errorf("duplicate collapse flags wrong: row1.shared=%v row2.shared=%v",
			br.Items[1].Shared, br.Items[2].Shared)
	}
	// Row 0's result must be byte-identical to the synchronous response.
	got, err := json.Marshal(br.Items[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	var wantRes engine.Result
	if err := json.Unmarshal(warm.Result, &wantRes); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(&wantRes)
	if !bytes.Equal(got, want) {
		t.Error("batch row result differs from synchronous /v1/whatif result")
	}
}

func TestBatchValidation(t *testing.T) {
	srv := newTestServer(t)
	if _, resp := postBatch(t, srv.URL, `{"requests":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchRows; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op":"whatif","gpus":%d}`, 1024+i)
	}
	sb.WriteString(`]}`)
	if _, resp := postBatch(t, srv.URL, sb.String()); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch status = %d, want 400", resp.StatusCode)
	}
	// A malformed row fails alone; the batch still answers 200.
	br, resp := postBatch(t, srv.URL, `{"requests":[{"op":"whatif"},{"op":"bogus"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status = %d, want 200", resp.StatusCode)
	}
	if br.Errors != 1 || br.Items[1].Error == "" || br.Items[0].Error != "" {
		t.Errorf("per-row error isolation wrong: %+v", br)
	}
}

// Streamed rows are byte-identical to the corresponding rows of the
// non-streaming JSON result, and the stream primes the cache.
func TestStreamByteIdentity(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/sweep?steps=6&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	frames := ndjsonFrames(t, resp.Body)
	if len(frames) != 8 { // 7 rows + end frame
		t.Fatalf("got %d frames, want 8", len(frames))
	}
	var end streamEndFrame
	if err := json.Unmarshal(frames[len(frames)-1], &end); err != nil || !end.End || end.Rows != 7 {
		t.Fatalf("end frame = %s (err %v), want end=true rows=7", frames[len(frames)-1], err)
	}

	// The non-streaming result for the same request (now a cache hit —
	// the stream primed it).
	var sync struct {
		Cached bool `json:"cached"`
		Result struct {
			Sweep []json.RawMessage `json:"sweep"`
		} `json:"result"`
	}
	resp2 := getJSON(t, srv.URL+"/v1/sweep?steps=6", &sync)
	if resp2.Header.Get("X-Cache") != "HIT" || !sync.Cached {
		t.Errorf("post-stream sync request was not a cache hit")
	}
	if len(sync.Result.Sweep) != 7 {
		t.Fatalf("sync sweep has %d points, want 7", len(sync.Result.Sweep))
	}
	for i, frame := range frames[:7] {
		var rf streamRowFrame
		if err := json.Unmarshal(frame, &rf); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rf.Row != i {
			t.Fatalf("frame %d carries row %d", i, rf.Row)
		}
		// Compact both sides: writeJSON indents the sync body, so the raw
		// bytes differ by whitespace only; compaction proves the content
		// bytes are identical.
		var a, b bytes.Buffer
		if err := json.Compact(&a, rf.Data); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, sync.Result.Sweep[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("row %d bytes differ:\nstream: %s\n  sync: %s", i, a.Bytes(), b.Bytes())
		}
	}
}

// A stream sends one frame per plan row, and its end frame counts them:
// chaos has one row per table row, gating computes its table as one row,
// and Fig. 3 has one row per bandwidth.
func TestStreamScenarioRows(t *testing.T) {
	srv := newTestServer(t)
	for path, rows := range map[string]int{
		"/v1/scenarios/chaos?rows=3&stream=1": 3,
		"/v1/scenarios/gating?stream=1":       1,
		"/v1/fig3?stream=1":                   len(core.Table3Bandwidths()),
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		frames := ndjsonFrames(t, resp.Body)
		resp.Body.Close()
		if len(frames) != rows+1 {
			t.Fatalf("%s: got %d frames, want %d rows + end", path, len(frames), rows)
		}
		var end struct {
			End  bool `json:"end"`
			Rows int  `json:"rows"`
		}
		if err := json.Unmarshal(frames[rows], &end); err != nil || !end.End || end.Rows != rows {
			t.Errorf("%s: end frame %s, want rows=%d", path, frames[rows], rows)
		}
	}
}

// A scenario stream resumes with ?from= exactly as a sweep stream does:
// the resumed body is byte for byte the tail of an uninterrupted stream,
// from the first wanted row through the end frame.
func TestScenarioStreamResumeFrom(t *testing.T) {
	srv := newTestServer(t)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	for _, tc := range []struct {
		path string
		from int
	}{
		{"/v1/scenarios/chaos?rows=3&stream=1", 2},
		{"/v1/scenarios/eee?stream=1", 3},
	} {
		full := get(tc.path)
		lines := bytes.SplitAfter(full, []byte("\n"))
		want := bytes.Join(lines[tc.from:], nil)
		got := get(tc.path + "&from=" + strconv.Itoa(tc.from))
		if !bytes.Equal(got, want) {
			t.Errorf("%s from %d:\n got: %s\nwant: %s", tc.path, tc.from, got, want)
		}
	}
}

// A stream that fails before row 0 answers a plain JSON error status.
func TestStreamBadRequest(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/scenarios/chaos?rows=0&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid stream status = %d, want 400", resp.StatusCode)
	}
}

// newKillableJobsServer is a jobs server whose manager "crashes" (halts
// with no terminal record) after checkpointing the given row, once.
func newKillableJobsServer(t *testing.T, killRow int) (*httptest.Server, *engine.Engine) {
	t.Helper()
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Registry: reg})
	killed := false
	jm, err := jobs.Open(jobs.Options{Dir: t.TempDir(), Exec: eng, Registry: reg,
		OnRowCheckpoint: func(id string, row int) error {
			if row == killRow && !killed {
				killed = true
				return fmt.Errorf("simulated crash")
			}
			return nil
		}})
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	srv := httptest.NewServer(newServer(eng, jm, time.Minute, obs.Nop(), reg))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		jm.Close(ctx)
	})
	return srv, eng
}

// The kill-and-resume acceptance case: a job stream killed mid-run ends
// with an interrupted frame and a resume offset; reconnecting with
// Last-Row after the resume delivers exactly the missing rows; and the
// union of both streams is byte-identical to the synchronous result.
func TestJobStreamKillAndResume(t *testing.T) {
	srv, _ := newKillableJobsServer(t, 2)
	snap, status := postJob(t, srv.URL, `{"op":"sweep","steps":6}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}

	// First stream: rows until the simulated crash, then an interrupted
	// end frame carrying the resume offset.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	frames := ndjsonFrames(t, resp.Body)
	resp.Body.Close()
	if len(frames) < 1 {
		t.Fatal("empty first stream")
	}
	var end streamEndFrame
	if err := json.Unmarshal(frames[len(frames)-1], &end); err != nil || !end.End {
		t.Fatalf("missing end frame: %s", frames[len(frames)-1])
	}
	if end.State != jobs.StateInterrupted {
		t.Fatalf("first stream end state = %s, want interrupted", end.State)
	}
	rows := frames[:len(frames)-1]
	if len(rows) != end.NextRow {
		t.Fatalf("streamed %d rows but next_row = %d", len(rows), end.NextRow)
	}
	if len(rows) != 3 {
		t.Fatalf("streamed %d rows before the crash, want 3 (kill after row 2)", len(rows))
	}

	// Resubmit resumes the interrupted job; reconnect with Last-Row.
	if _, status := postJob(t, srv.URL, `{"op":"sweep","steps":6}`); status != http.StatusOK {
		t.Fatalf("resubmit status = %d, want 200", status)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+snap.ID+"/stream", nil)
	req.Header.Set("Last-Row", strconv.Itoa(len(rows)-1))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frames2 := ndjsonFrames(t, resp2.Body)
	resp2.Body.Close()
	var end2 streamEndFrame
	if err := json.Unmarshal(frames2[len(frames2)-1], &end2); err != nil || end2.State != jobs.StateDone {
		t.Fatalf("resumed stream end = %s, want done", frames2[len(frames2)-1])
	}
	if end2.Result == nil {
		t.Fatal("terminal end frame carries no result")
	}
	rows = append(rows, frames2[:len(frames2)-1]...)
	if len(rows) != 7 {
		t.Fatalf("total streamed rows = %d, want 7", len(rows))
	}

	// Byte identity: every streamed row's data equals the corresponding
	// sweep point of the synchronous result.
	var sync struct {
		Result struct {
			Sweep []json.RawMessage `json:"sweep"`
		} `json:"result"`
	}
	getJSON(t, srv.URL+"/v1/sweep?steps=6", &sync)
	for i, raw := range rows {
		var rs jobs.RowStatus
		if err := json.Unmarshal(raw, &rs); err != nil {
			t.Fatalf("row frame %d: %v", i, err)
		}
		if rs.Row != i {
			t.Fatalf("row frame %d carries row %d", i, rs.Row)
		}
		var a, b bytes.Buffer
		if err := json.Compact(&a, rs.Data); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, sync.Result.Sweep[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("row %d bytes differ across kill-and-resume:\nstream: %s\n  sync: %s",
				i, a.Bytes(), b.Bytes())
		}
	}
}

func TestJobStreamUnknownAndDisabled(t *testing.T) {
	srv := newTestServer(t) // no -jobdir
	resp, err := http.Get(srv.URL + "/v1/jobs/deadbeef/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("jobs-disabled stream status = %d, want 503", resp.StatusCode)
	}
	jsrv := newJobsTestServer(t, nil)
	resp2, err := http.Get(jsrv.URL + "/v1/jobs/deadbeef/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream status = %d, want 404", resp2.StatusCode)
	}
}

// A client that disconnects mid-stream is counted as canceled — not a
// deadline — releases its worker slot, and does not block Drain.
func TestStreamClientDisconnect(t *testing.T) {
	s, eng := newWiredServer(engine.Options{Workers: 2}, time.Minute)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/v1/scenarios/chaos?rows=3&sleep=2&stream=1", nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		done <- err
	}()
	// Let the stream admit and start computing row 0 (the 2s sleep), then
	// hang up.
	deadline := time.After(2 * time.Second)
	for eng.Pending() == 0 {
		select {
		case <-deadline:
			t.Fatal("stream never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done

	// The engine must classify the abandonment as canceled, not deadline.
	waitDeadline := time.After(2 * time.Second)
	for metric(t, s.reg, "netpowerprop_engine_canceled_total") == 0 {
		select {
		case <-waitDeadline:
			t.Fatalf("canceled=0 deadlines=%v after disconnect, want 1/0",
				metric(t, s.reg, "netpowerprop_engine_deadline_total"))
		case <-time.After(time.Millisecond):
		}
	}
	if got := metric(t, s.reg, "netpowerprop_engine_deadline_total"); got != 0 {
		t.Errorf("deadlines = %v, want 0", got)
	}
	// The worker slot and queue position are released: Drain completes.
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	if err := eng.Drain(dctx); err != nil {
		t.Fatalf("drain after disconnected stream: %v", err)
	}
}

// Per-tenant quotas: exhausted tenants get 429 with a refill-derived
// Retry-After, other tenants are unaffected, and high priority overdraws.
func TestQuotaAdmission(t *testing.T) {
	s, eng := newWiredServer(engine.Options{}, time.Minute)
	s.admit = admit.New(admit.Options{RatePerSec: 1, Burst: 2,
		Capacity: eng.Capacity(), Pending: eng.Pending})
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(tenant, pri string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/whatif", nil)
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		if pri != "" {
			req.Header.Set("X-Priority", pri)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := get("a", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d, want 200", i, resp.StatusCode)
		}
	}
	resp := get("a", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// Another tenant still sails through.
	if resp := get("b", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("tenant b status = %d, want 200", resp.StatusCode)
	}
	// High priority overdraws tenant a's empty bucket.
	if resp := get("a", "high"); resp.StatusCode != http.StatusOK {
		t.Errorf("high-priority overdraw status = %d, want 200", resp.StatusCode)
	}
	// Unknown priority is a client error.
	if resp := get("a", "urgent"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad priority status = %d, want 400", resp.StatusCode)
	}
	// Quotas meter batch rows: tenant c's first 2-row batch drains its
	// burst of 2, so the identical resubmission is a 429 with a
	// refill-derived Retry-After.
	batch := func(body string) *http.Response {
		breq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch", strings.NewReader(body))
		breq.Header.Set("X-Tenant", "c")
		bresp, err := http.DefaultClient.Do(breq)
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		return bresp
	}
	two := `{"requests":[{"op":"whatif"},{"op":"cost"}]}`
	if bresp := batch(two); bresp.StatusCode != http.StatusOK {
		t.Fatalf("2-row batch within burst status = %d, want 200", bresp.StatusCode)
	}
	bresp := batch(two)
	if bresp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("2-row batch against drained bucket status = %d, want 429", bresp.StatusCode)
	}
	if bresp.Header.Get("Retry-After") == "" {
		t.Error("drained-bucket rejection carries no Retry-After")
	}
	// A 3-row batch needs 3 tokens but the bucket refills only to 2:
	// waiting can never help, so the rejection is a permanent 413 with
	// no Retry-After telling the client to split the batch.
	bresp = batch(`{"requests":[{"op":"whatif"},{"op":"cost"},{"op":"whatif","gpus":512}]}`)
	if bresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("3-row batch against burst 2 status = %d, want 413", bresp.StatusCode)
	}
	if ra := bresp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("permanent too-large rejection carries Retry-After %q", ra)
	}
}

// Batch rows the engine sheds after quota admission are refunded: the
// work was never done, so the client's resubmission of those rows does
// not pay quota twice.
func TestBatchShedRefundsQuota(t *testing.T) {
	s, eng := newWiredServer(engine.Options{Workers: 1, MaxQueue: 1}, time.Minute)
	// Refill is negligible within the test: only the refund can restore
	// the tokens the first batch spends.
	s.admit = admit.New(admit.Options{RatePerSec: 0.001, Burst: 10,
		Capacity: eng.Capacity(), Pending: eng.Pending, Registry: s.reg})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Occupy the engine's full capacity (1 worker + 1 queue slot) so
	// every batch row is shed.
	go http.Get(srv.URL + "/v1/scenarios/chaos?sleep=0.5")  //nolint:errcheck
	go http.Get(srv.URL + "/v1/scenarios/chaos?sleep=0.51") //nolint:errcheck
	deadline := time.After(2 * time.Second)
	for eng.Pending() < 2 {
		select {
		case <-deadline:
			t.Fatal("sleeper never admitted")
		case <-time.After(time.Millisecond):
		}
	}

	batch := func(body string) *http.Response {
		breq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch", strings.NewReader(body))
		breq.Header.Set("X-Tenant", "r")
		bresp, err := http.DefaultClient.Do(breq)
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		return bresp
	}
	bresp := batch(`{"requests":[{"op":"whatif"},{"op":"whatif","gpus":1024},{"op":"whatif","gpus":2048},{"op":"whatif","gpus":4096}]}`)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("shed batch status = %d, want 200 (rows fail individually)", bresp.StatusCode)
	}
	if shed := bresp.Header.Get("X-Batch-Shed"); shed != "4" {
		t.Fatalf("X-Batch-Shed = %q, want 4", shed)
	}
	if metrics := getText(t, srv.URL+"/metrics"); !strings.Contains(metrics, "netpowerprop_admit_refunded_rows_total 4\n") {
		t.Errorf("/metrics lacks netpowerprop_admit_refunded_rows_total 4:\n%s", metrics)
	}
	// The refund restored the 4 tokens, so a full-burst batch is admitted
	// past the quota layer (and shed again by the engine, not 429'd).
	if bresp := batch(`{"requests":[{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"},{"op":"whatif"}]}`); bresp.StatusCode != http.StatusOK {
		t.Fatalf("full-burst batch after refund status = %d, want 200", bresp.StatusCode)
	}
}

// Low priority is shed early — while normal traffic still gets through —
// without touching the engine's shed counter.
func TestLowPriorityShedEarly(t *testing.T) {
	s, eng := newWiredServer(engine.Options{Workers: 1, MaxQueue: 3}, time.Minute)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Warm the cache so the normal-priority probe below can answer
	// without queueing behind the sleeper.
	if resp, err := http.Get(srv.URL + "/v1/whatif"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// Occupy the pool: capacity 4, half 2.
	for i := 0; i < 2; i++ {
		go http.Get(srv.URL + fmt.Sprintf("/v1/scenarios/chaos?sleep=0.%d", 20+i)) //nolint:errcheck
	}
	deadline := time.After(2 * time.Second)
	for eng.Pending() < 2 {
		select {
		case <-deadline:
			t.Fatal("sleepers never admitted")
		case <-time.After(time.Millisecond):
		}
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/whatif?gpus=2048", nil)
	req.Header.Set("X-Priority", "low")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low priority under load status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("low-priority shed carries no Retry-After")
	}
	// The same request at normal priority is admitted (cached: instant).
	if resp, err := http.Get(srv.URL + "/v1/whatif"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("normal priority under same load = %v/%d, want 200", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// The early shed is the admission layer's, not the engine's.
	if got := metric(t, s.reg, "netpowerprop_engine_shed_total"); got != 0 {
		t.Errorf("engine sheds = %v, want 0 (admission layer shed it)", got)
	}
}

// A shed batch derives Retry-After from its row count: more rows, longer
// wait than a single shed request sees at the same queue depth.
func TestBatchRetryAfterCountsRows(t *testing.T) {
	s, eng := newWiredServer(engine.Options{Workers: 1, MaxQueue: 1}, time.Minute)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Saturate: capacity 2.
	for i := 0; i < 2; i++ {
		go http.Get(srv.URL + fmt.Sprintf("/v1/scenarios/chaos?sleep=0.%d", 50+i)) //nolint:errcheck
	}
	deadline := time.After(2 * time.Second)
	for eng.Pending() < 2 {
		select {
		case <-deadline:
			t.Fatal("sleepers never admitted")
		case <-time.After(time.Millisecond):
		}
	}

	// Single shed request.
	resp, err := http.Get(srv.URL + "/v1/whatif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("single status = %d, want 503", resp.StatusCode)
	}
	single, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("single Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}

	// A 60-unique-row batch shed at the same depth must wait longer.
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op":"whatif","gpus":%d}`, 1024+i)
	}
	sb.WriteString(`]}`)
	br, bresp := postBatch(t, srv.URL, sb.String())
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (per-row sheds)", bresp.StatusCode)
	}
	if br.Shed != 60 {
		t.Fatalf("batch shed = %d, want 60", br.Shed)
	}
	batchRA, err := strconv.Atoi(bresp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("batch Retry-After %q: %v", bresp.Header.Get("Retry-After"), err)
	}
	if batchRA <= single {
		t.Errorf("batch Retry-After %d <= single %d: queue-depth estimate not row-aware", batchRA, single)
	}
}

// Negative resume offsets are rejected up front with 400 — regression:
// a negative Last-Row / from used to flow into journal and stream
// slicing as a negative start row.
func TestStreamNegativeOffsetRejected(t *testing.T) {
	srv := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/sweep?steps=4&stream=1", nil)
	req.Header.Set("Last-Row", "-5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sync stream with Last-Row: -5 status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/sweep?steps=4&stream=1&from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sync stream with from=-1 status = %d, want 400", resp.StatusCode)
	}
}

// The resumable job stream applies the same validation.
func TestJobStreamNegativeOffsetRejected(t *testing.T) {
	srv, _ := newKillableJobsServer(t, -1)
	snap, status := postJob(t, srv.URL, `{"op":"sweep","steps":4}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+snap.ID+"/stream", nil)
	req.Header.Set("Last-Row", "-5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("job stream with Last-Row: -5 status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/stream?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("job stream with from=-1 status = %d, want 400", resp.StatusCode)
	}
}
