package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"netpowerprop/internal/chaos"
	"netpowerprop/internal/engine"
)

// Typed journal-failure surfaces. A journal append that fails leaves
// the node unable to make durability promises: callers match these
// with errors.Is to distinguish a broken write-ahead log from an
// engine or request failure.
var (
	// ErrJournalWrite marks a failed (or short) journal record write:
	// the record may be partially on disk as a torn tail.
	ErrJournalWrite = errors.New("jobs: journal write failed")
	// ErrJournalSync marks a failed fsync after a record write: the
	// bytes were handed to the kernel but durability is unknown. Per
	// fsync semantics a failed sync poisons the file's dirty state, so
	// the journal must be treated as broken from here on.
	ErrJournalSync = errors.New("jobs: journal fsync failed")
	// ErrJournalDegraded is returned by Submit once any journal append
	// has failed: the manager stops accepting new durable work while
	// compute-only traffic continues.
	ErrJournalDegraded = errors.New("jobs: journal degraded, not accepting new jobs")
)

// The journal is a per-job JSONL write-ahead log. One file per job,
// one record per line, appended and fsynced in order:
//
//	{"t":"submit","id":...,"key":...,"req":{...},"rows":N,"at":...}
//	{"t":"row","i":0,"attempts":1,"data":<row payload>,"at":...}
//	{"t":"row","i":3,"attempts":4,"error":"...","panic":true,"at":...}   (exhausted retries)
//	{"t":"done","status":"done"|"degraded"|"canceled","at":...}
//
// A journal without a terminal "done" record is an interrupted job:
// Recover replays its row records and resumes from the first missing
// row. A torn trailing line (crash mid-append) is discarded; every
// fully written record before it is honored.
type record struct {
	T        string          `json:"t"`
	ID       string          `json:"id,omitempty"`
	Key      string          `json:"key,omitempty"`
	Req      *engine.Request `json:"req,omitempty"`
	Rows     int             `json:"rows,omitempty"`
	I        int             `json:"i,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Data     json.RawMessage `json:"data,omitempty"`
	Error    string          `json:"error,omitempty"`
	Panic    bool            `json:"panic,omitempty"`
	Status   string          `json:"status,omitempty"`
	// Trace is the submitting request's trace ID, persisted so a job
	// resumed after a restart still logs under the original trace.
	Trace string `json:"trace,omitempty"`
	// At is the wall-clock append time (UnixNano), informational only:
	// replay ignores it, so journals stay byte-replayable across clock
	// changes.
	At int64 `json:"at,omitempty"`
}

const (
	recSubmit = "submit"
	recRow    = "row"
	recDone   = "done"
)

// journal is an append-only JSONL file. Appends are serialized and
// fsynced so a row completion survives an immediate crash.
type journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	chaos *chaos.Plan // failpoints for the write and fsync; nil injects nothing
}

// createJournal truncates and opens a fresh journal for a new job run.
func createJournal(path string, plan *chaos.Plan) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	return &journal{f: f, path: path, chaos: plan}, nil
}

// appendJournal opens an existing journal for resumption.
func appendJournal(path string, plan *chaos.Plan) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	return &journal{f: f, path: path, chaos: plan}, nil
}

// append writes one record and syncs it to stable storage.
func (j *journal) append(rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: marshal journal record: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("jobs: journal %s is closed", j.path)
	}
	if n, ferr := j.chaos.FileWrite(chaos.SiteJournalWrite, "", len(b)); ferr != nil {
		if n > 0 {
			// Injected short write: the prefix really reaches the file,
			// leaving the torn tail recovery must truncate.
			j.f.Write(b[:n])
		}
		return fmt.Errorf("%w: %s: %w", ErrJournalWrite, j.path, ferr)
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrJournalWrite, j.path, err)
	}
	if ferr := j.chaos.Error(chaos.SiteJournalFsync, ""); ferr != nil {
		return fmt.Errorf("%w: %s: %w", ErrJournalSync, j.path, ferr)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrJournalSync, j.path, err)
	}
	return nil
}

// close closes the underlying file; further appends fail.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// readJournal parses a journal file, tolerating a torn tail: a record is
// durable iff its line is complete (newline-terminated) and parses, and
// reading stops at the first line that is not. cleanOff is the byte
// length of the durable prefix — when torn is set, recovery truncates the
// file there so a resumed run appends onto clean bytes, never onto a
// partial line.
func readJournal(path string) (recs []record, cleanOff int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == nil {
			trimmed := bytes.TrimSpace(line)
			if len(trimmed) != 0 {
				var rec record
				if json.Unmarshal(trimmed, &rec) != nil {
					return recs, cleanOff, true, nil
				}
				recs = append(recs, rec)
			}
			cleanOff += int64(len(line))
			continue
		}
		// EOF with a partial (unterminated) line, or a read error: either
		// way the tail is not durable.
		if len(bytes.TrimSpace(line)) != 0 || rerr != io.EOF {
			torn = true
		}
		return recs, cleanOff, torn, nil
	}
}
