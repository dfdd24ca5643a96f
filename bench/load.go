package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netpowerprop/internal/engine"
)

// maxConns is the number of closed-loop clients, each with its own
// connection: the most connections the benchmark holds to the server.
const maxConns = 2

// callTimeout bounds one HTTP request; a call that exceeds it fails.
const callTimeout = 60 * time.Second

// conn is one keep-alive HTTP/1.1 connection, used by one client. The
// benchmark speaks HTTP on it directly rather than through net/http's
// Transport, whose reader and writer goroutines add two scheduler
// hand-offs to every request on the two cores the server shares.
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

// roundTrip sends one request and reads the whole response. The body is
// valid until the next call.
func (c *conn) roundTrip(method, path string, body []byte) (*http.Response, []byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, nil, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(callTimeout)); err != nil {
		c.close()
		return nil, nil, err
	}
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		fmt.Fprintf(&c.buf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	if _, err := c.nc.Write(c.buf.Bytes()); err != nil {
		c.close()
		return nil, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return nil, nil, err
	}
	return resp, c.buf.Bytes(), nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// outcome is one call's record. Times are offsets from the window start.
type outcome struct {
	index      int
	kind       string
	sent, done time.Duration
	// late is how long after the client's previous answer the call was
	// sent: the client's own overhead between calls.
	late        time.Duration
	rows        int // rows delivered
	ops, failed int
	err         error
	// httpN requests took httpTime from send to last byte and returned
	// bytes of body: the client side of serve.http_us_mean.
	httpN    int
	httpTime time.Duration
	bytes    int64
	// got holds the compacted result bytes to verify (kept calls only).
	got [][]byte
}

func (o *outcome) latency() time.Duration { return o.done - o.sent }

// runClosed runs maxConns clients that each send their next call as soon
// as the previous one answers, until window has passed; calls in flight at
// the end complete and are recorded. Call i is next(i); the answers of
// calls keep(i) accepts are kept for verification.
func runClosed(addr string, start time.Time, window time.Duration, next func(i int) call, keep func(i int) bool) []outcome {
	var mu sync.Mutex
	var out []outcome
	var seq atomic.Int64
	var wg sync.WaitGroup
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := &conn{addr: addr}
			defer cn.close()
			var mine []outcome
			var prev time.Duration
			for time.Since(start) < window {
				i := int(seq.Add(1) - 1)
				c := next(i)
				o := do(cn, &c, keep(i), start)
				o.index = i
				if len(mine) > 0 {
					o.late = o.sent - prev
				}
				prev = o.done
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// do performs one call and checks its answer.
func do(cn *conn, c *call, keep bool, start time.Time) outcome {
	o := outcome{kind: c.kind, ops: c.ops(), sent: time.Since(start)}
	var err error
	switch c.kind {
	case "get":
		err = get(cn, c, &o, keep)
	case "batch":
		err = batch(cn, c, &o, keep)
	case "stream":
		err = stream(cn, c.path, c.rows, "", &o, keep)
	case "job":
		err = job(cn, c, &o, keep)
	default:
		err = fmt.Errorf("unknown call kind %q", c.kind)
	}
	o.done = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("%s %s: %w", c.method, c.path, err)
		o.failed = o.ops
	} else {
		o.rows = c.rows
	}
	return o
}

// send performs one HTTP request, accounting it to o.
func send(cn *conn, method, path string, body []byte, o *outcome) (*http.Response, []byte, error) {
	t0 := time.Now()
	resp, b, err := cn.roundTrip(method, path, body)
	o.httpN++
	o.httpTime += time.Since(t0)
	o.bytes += int64(len(b))
	return resp, b, err
}

func statusErr(resp *http.Response, body []byte) error {
	return fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
}

// compact returns raw JSON with insignificant whitespace removed.
func compact(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// get checks a synchronous answer: 200, a parseable body, a result of the
// asked op, and the expected table rows for a scenario.
func get(cn *conn, c *call, o *outcome, keep bool) error {
	resp, body, err := send(cn, c.method, c.path, c.body, o)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusErr(resp, body)
	}
	if !keep && c.req.Op != engine.OpScenario {
		// The cache-hit path, thousands of calls a second on the cores the
		// server uses: one validity scan and an op check cost a third of a
		// decode.
		if !json.Valid(body) {
			return fmt.Errorf("unparseable body: %.200s", body)
		}
		if !bytes.Contains(body, []byte(`"op": "`+string(c.req.Op)+`"`)) {
			return fmt.Errorf("no %s result in %.200s", c.req.Op, body)
		}
		return nil
	}
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("parse body: %w", err)
	}
	var res struct {
		Op    string `json:"op"`
		Table *struct {
			Rows [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return fmt.Errorf("parse result: %w", err)
	}
	if res.Op != string(c.req.Op) {
		return fmt.Errorf("result op %q, want %q", res.Op, c.req.Op)
	}
	if res.Table != nil && len(res.Table.Rows) != c.rows {
		return fmt.Errorf("%d table rows, want %d", len(res.Table.Rows), c.rows)
	}
	if keep {
		b, err := compact(env.Result)
		if err != nil {
			return err
		}
		o.got = [][]byte{b}
	}
	return nil
}

// batch checks a /v1/batch answer: every row present and none failed.
func batch(cn *conn, c *call, o *outcome, keep bool) error {
	resp, body, err := send(cn, c.method, c.path, c.body, o)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusErr(resp, body)
	}
	want := strconv.Itoa(len(c.batch))
	if got := resp.Header.Get("X-Batch-Rows"); got != want {
		return fmt.Errorf("X-Batch-Rows %q, want %s", got, want)
	}
	if got := resp.Header.Get("X-Batch-Errors"); got != "0" {
		return fmt.Errorf("X-Batch-Errors %q, want 0", got)
	}
	var br struct {
		Items []struct {
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return fmt.Errorf("parse body: %w", err)
	}
	if len(br.Items) != len(c.batch) {
		return fmt.Errorf("%d items, want %d", len(br.Items), len(c.batch))
	}
	for i, it := range br.Items {
		if it.Error != "" || len(it.Result) == 0 {
			return fmt.Errorf("row %d: no result (error %q)", i, it.Error)
		}
		if keep {
			o.got = append(o.got, it.Result)
		}
	}
	return nil
}

// frame is one NDJSON line of a row stream: a row frame or the end frame.
type frame struct {
	Row    *int            `json:"row"`
	Done   *bool           `json:"done"`
	Data   json.RawMessage `json:"data"`
	Error  string          `json:"error"`
	End    bool            `json:"end"`
	Rows   int             `json:"rows"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
}

// stream checks an NDJSON row stream: rows 0..rows-1 in order, each with
// data, then an end frame without error. A job stream (wantState set)
// must also end in that state; its end frame's result is what is kept.
func stream(cn *conn, path string, rows int, wantState string, o *outcome, keep bool) error {
	resp, body, err := send(cn, "GET", path, nil, o)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusErr(resp, body)
	}
	next := 0
	for len(body) > 0 {
		line, rest, _ := bytes.Cut(body, []byte("\n"))
		body = rest
		var f frame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("parse frame %d: %w", next, err)
		}
		if f.End {
			switch {
			case f.Error != "":
				return fmt.Errorf("stream ended in error: %s", f.Error)
			case next != rows || f.Rows != rows:
				return fmt.Errorf("stream ended after %d rows (end frame says %d), want %d", next, f.Rows, rows)
			case f.State != wantState:
				return fmt.Errorf("stream ended in state %q, want %q", f.State, wantState)
			}
			if keep && wantState != "" {
				b, err := compact(f.Result)
				if err != nil {
					return err
				}
				o.got = [][]byte{b}
			}
			return nil
		}
		if f.Row == nil || *f.Row != next || len(f.Data) == 0 || f.Error != "" || (f.Done != nil && !*f.Done) {
			return fmt.Errorf("bad row frame %d: %.200s", next, line)
		}
		if keep && wantState == "" {
			o.got = append(o.got, f.Data)
		}
		next++
	}
	return fmt.Errorf("stream cut after %d rows without an end frame", next)
}

// job submits a durable job and streams its rows to the end frame.
func job(cn *conn, c *call, o *outcome, keep bool) error {
	resp, body, err := send(cn, c.method, c.path, c.body, o)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return statusErr(resp, body)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
		return fmt.Errorf("parse job snapshot: %v: %.200s", err, body)
	}
	return stream(cn, "/v1/jobs/"+snap.ID+"/stream", c.rows, "done", o, keep)
}
