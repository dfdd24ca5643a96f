package cosim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// maxLine bounds one protocol line. Power requests carry whole device
// traces, so lines can be large; 16 MiB is far above any real scenario.
const maxLine = 16 << 20

// handshakeTimeout bounds the hello exchange.
const handshakeTimeout = 5 * time.Second

// Options tunes a Client.
type Options struct {
	// Timeout bounds each call round trip (default 2s). A call that
	// exceeds it latches the client dead: the transport is lockstep, so a
	// late answer can never be matched safely again.
	Timeout time.Duration
}

func (o Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 2 * time.Second
}

// readLine is one line (or terminal error) from the model's stdout.
type readLine struct {
	line []byte
	err  error
}

// Client speaks the engine side of the protocol over any reader/writer
// pair — a subprocess's pipes via Dial, or in-process pipes in tests.
// Calls are lockstep and serialized; any transport fault (timeout, EOF,
// malformed line, id mismatch) latches the client dead so later calls
// fail fast into the caller's fallback path.
type Client struct {
	mu      sync.Mutex
	w       *bufio.Writer
	lines   chan readLine
	timeout time.Duration
	nextID  uint64
	dead    error

	model string
	caps  map[string]bool

	closeFn func() error
}

// NewClient wraps an established transport and performs the handshake:
// it sends the engine hello, then requires a model hello carrying the
// same protocol version, a model name, and at least one known
// capability. Any deviation is an error and the transport should be
// discarded.
func NewClient(w io.Writer, r io.Reader, opts Options) (*Client, error) {
	c := &Client{
		w:       bufio.NewWriter(w),
		lines:   make(chan readLine, 1),
		timeout: opts.timeout(),
	}
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), maxLine)
		for sc.Scan() {
			// Copy: the scanner reuses its buffer across lines.
			c.lines <- readLine{line: append([]byte(nil), sc.Bytes()...)}
		}
		err := sc.Err()
		if err == nil {
			err = io.EOF
		}
		c.lines <- readLine{err: err}
		close(c.lines)
	}()
	if err := c.handshake(); err != nil {
		return nil, fmt.Errorf("cosim: handshake: %w", err)
	}
	return c, nil
}

func (c *Client) handshake() error {
	if err := c.send(&Hello{T: TypeHello, Proto: ProtoVersion, Engine: "netpowerprop"}); err != nil {
		return err
	}
	line, err := c.read(handshakeTimeout)
	if err != nil {
		return err
	}
	var h Hello
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("malformed hello %q: %w", truncate(line), err)
	}
	if h.T != TypeHello {
		return fmt.Errorf("expected hello, got %q", h.T)
	}
	if h.Proto != ProtoVersion {
		return fmt.Errorf("protocol version mismatch: model speaks v%d, engine speaks v%d", h.Proto, ProtoVersion)
	}
	if h.Model == "" {
		return fmt.Errorf("model did not name itself")
	}
	if len(h.Caps) == 0 {
		return fmt.Errorf("model %q declared no capabilities", h.Model)
	}
	caps := make(map[string]bool, len(h.Caps))
	for _, capability := range h.Caps {
		switch capability {
		case CapLatency, CapPower:
			caps[capability] = true
		default:
			return fmt.Errorf("model %q declared unknown capability %q", h.Model, capability)
		}
	}
	c.model, c.caps = h.Model, caps
	return nil
}

// Model returns the handshaken model name.
func (c *Client) Model() string { return c.model }

// Has reports whether the model declared a capability.
func (c *Client) Has(capability string) bool { return c.caps[capability] }

// Call sends one request and waits for its answer. A TypeError response
// is returned as an error without killing the client; transport faults
// latch the client dead and every later Call fails immediately.
func (c *Client) Call(req *Request) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return 0, c.dead
	}
	c.nextID++
	req.ID = c.nextID
	if err := c.send(req); err != nil {
		return 0, c.die(err)
	}
	line, err := c.read(c.timeout)
	if err != nil {
		return 0, c.die(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return 0, c.die(fmt.Errorf("malformed response %q: %w", truncate(line), err))
	}
	if resp.ID != req.ID {
		return 0, c.die(fmt.Errorf("desync: response id %d for request id %d", resp.ID, req.ID))
	}
	switch resp.T {
	case TypeResult:
		return resp.Value, nil
	case TypeError:
		return 0, fmt.Errorf("cosim: model error: %s", resp.Err)
	default:
		return 0, c.die(fmt.Errorf("unknown response type %q", resp.T))
	}
}

// die latches the client dead. Caller holds c.mu.
func (c *Client) die(err error) error {
	c.dead = fmt.Errorf("cosim: client dead: %w", err)
	return c.dead
}

func (c *Client) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Client) read(timeout time.Duration) ([]byte, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case rl := <-c.lines:
		if rl.err != nil {
			return nil, rl.err
		}
		return rl.line, nil
	case <-t.C:
		return nil, fmt.Errorf("timeout after %v", timeout)
	}
}

// Close tears down the transport (and subprocess, when dialed).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = fmt.Errorf("cosim: client closed")
	}
	fn := c.closeFn
	c.closeFn = nil
	c.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return nil
}

// Dial starts the model subprocess (argv[0] plus args) and handshakes
// with it over its stdin/stdout. On handshake failure the subprocess is
// killed. Close closes the model's stdin (the protocol's shutdown
// signal) and waits briefly before killing.
func Dial(argv []string, opts Options) (*Client, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("cosim: empty model command")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("cosim: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("cosim: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cosim: start %q: %w", argv[0], err)
	}
	reap := func() error {
		stdin.Close()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			cmd.Process.Kill()
			return <-done
		}
	}
	c, err := NewClient(stdin, stdout, opts)
	if err != nil {
		reap()
		return nil, err
	}
	c.closeFn = reap
	return c, nil
}

func truncate(b []byte) string {
	const n = 120
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
