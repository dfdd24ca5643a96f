package cosim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// cassetteEntry is one recorded call: the canonical request bytes and
// the model's value. One JSON object per line.
type cassetteEntry struct {
	Req   json.RawMessage `json:"req"`
	Value float64         `json:"value"`
}

// Recorder wraps a live Provider and appends every successful response
// to a JSONL cassette, deduplicated by canonical request key, so a
// later Replayer can serve the identical values with no subprocess.
// Failed calls are never recorded: a cassette only ever contains
// answers the model actually gave.
type Recorder struct {
	p Provider

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	seen map[string]bool
	werr error
}

// NewRecorder opens (truncating) the cassette at path around p.
func NewRecorder(p Provider, path string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cosim: cassette: %w", err)
	}
	return &Recorder{p: p, f: f, w: bufio.NewWriter(f), seen: make(map[string]bool)}, nil
}

// Call forwards to the wrapped provider and records the response.
// Recording faults are sticky but non-fatal: the live value is still
// returned so the run proceeds; Close reports the first write error.
func (r *Recorder) Call(req *Request) (float64, error) {
	v, err := r.p.Call(req)
	if err != nil {
		return v, err
	}
	key, kerr := req.Canonical()
	if kerr != nil {
		return v, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.werr != nil || r.seen[string(key)] {
		return v, nil
	}
	r.seen[string(key)] = true
	line, merr := json.Marshal(cassetteEntry{Req: key, Value: v})
	if merr != nil {
		r.werr = merr
		return v, nil
	}
	if _, werr := r.w.Write(line); werr != nil {
		r.werr = werr
	} else if werr := r.w.WriteByte('\n'); werr != nil {
		r.werr = werr
	}
	return v, nil
}

// Close flushes and fsyncs the cassette, closes the wrapped provider,
// and reports the first error from any of those.
func (r *Recorder) Close() error {
	r.mu.Lock()
	err := r.werr
	if ferr := r.w.Flush(); err == nil {
		err = ferr
	}
	if serr := r.f.Sync(); err == nil {
		err = serr
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	r.mu.Unlock()
	if perr := r.p.Close(); err == nil {
		err = perr
	}
	return err
}

// Replayer serves recorded responses from a cassette with no subprocess.
// A malformed line (a torn tail from a crashed recorder) stops loading
// at that point: every entry before it replays normally, and any call
// not in the cassette returns an error, which the binding fails closed
// to the in-process model with a counted fallback.
type Replayer struct {
	entries map[string]float64
	torn    bool
}

// OpenCassette loads a cassette for replay.
func OpenCassette(path string) (*Replayer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cosim: cassette: %w", err)
	}
	defer f.Close()
	r := &Replayer{entries: make(map[string]float64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e cassetteEntry
		if json.Unmarshal(line, &e) != nil || len(e.Req) == 0 {
			r.torn = true
			break
		}
		// Re-canonicalize through Request so hand-edited cassettes with
		// reordered keys still match live request encodings.
		var req Request
		if json.Unmarshal(e.Req, &req) != nil {
			r.torn = true
			break
		}
		key, kerr := req.Canonical()
		if kerr != nil {
			r.torn = true
			break
		}
		r.entries[string(key)] = e.Value
	}
	if err := sc.Err(); err != nil {
		r.torn = true
	}
	return r, nil
}

// Len reports how many distinct calls the cassette holds.
func (r *Replayer) Len() int { return len(r.entries) }

// Call serves a recorded response; a miss is an error (fail closed).
func (r *Replayer) Call(req *Request) (float64, error) {
	key, err := req.Canonical()
	if err != nil {
		return 0, fmt.Errorf("cosim: cassette: %w", err)
	}
	v, ok := r.entries[string(key)]
	if !ok {
		return 0, fmt.Errorf("cosim: cassette miss for %s", truncate(key))
	}
	return v, nil
}

// Close is a no-op; the cassette file is fully loaded at open.
func (r *Replayer) Close() error { return nil }
