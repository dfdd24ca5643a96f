package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/jobs"
)

// This file is the server's high-throughput surfaces: POST /v1/batch
// (many requests, one call, one response frame per row) and the NDJSON
// row streams (?stream=1 on synchronous endpoints; GET
// /v1/jobs/{id}/stream for durable jobs, resumable via Last-Row).

// maxBatchRows bounds one batch submission. Clients with more rows split
// them — the point of batching is amortization, not unbounded bodies.
const maxBatchRows = 1024

// batchItem is one row of the /v1/batch response, in request order.
type batchItem struct {
	Result *engine.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	// Cached: served from the result cache. Shared: piggybacked on
	// another row's (or another request's) in-flight computation.
	Cached bool `json:"cached,omitempty"`
	Shared bool `json:"shared,omitempty"`
}

// batchResponse is the /v1/batch body: per-row outcomes plus aggregate
// accounting. The call itself answers 200 even when rows failed — each
// row carries its own error, exactly as N independent calls would have.
type batchResponse struct {
	Items     []batchItem `json:"items"`
	Rows      int         `json:"rows"`
	Cached    int         `json:"cached"`
	Errors    int         `json:"errors"`
	Shed      int         `json:"shed"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// handleBatch answers many requests in one POST: body {"requests":
// [{...},...]} where each element is a synchronous endpoint's body plus
// "op". Decode and encode are paid once per batch, and engine.DoBatch
// dispatches each unique key once; quota admission spends the batch's
// true row count; and when overload sheds rows, the Retry-After header is
// derived from the shed row count, not from one unit.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Requests []engine.Request `json:"requests"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		s.writeError(w, fmt.Errorf("decode batch body: %w", err))
		return
	}
	if len(body.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "empty batch: requests must hold at least one request"})
		return
	}
	if len(body.Requests) > maxBatchRows {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("batch of %d rows exceeds the %d-row limit; split it", len(body.Requests), maxBatchRows)})
		return
	}
	tenant, pri, ok := s.admitRequest(w, r, len(body.Requests))
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	start := time.Now()
	items := s.eng.DoBatch(ctx, body.Requests)
	resp := batchResponse{Items: make([]batchItem, len(items)), Rows: len(items)}
	for i, it := range items {
		resp.Items[i] = batchItem{Result: it.Result, Cached: it.Cached, Shared: it.Shared}
		if it.Cached {
			resp.Cached++
		}
		if it.Err != nil {
			resp.Items[i].Error = it.Err.Error()
			resp.Errors++
			if errors.Is(it.Err, engine.ErrOverloaded) {
				resp.Shed++
			}
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if resp.Shed > 0 {
		// Shed rows never did their work: refund their tokens so the
		// client's resubmission does not pay quota twice for them.
		s.admit.Refund(tenant, pri, resp.Shed)
		// Row-aware hint: the client will resubmit Shed rows, so derive
		// the wait from that row count against the live queue.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(resp.Shed)))
	}
	// Aggregate outcomes ride in headers so bulk clients can account for
	// the batch without parsing the (potentially large) body, and the
	// body is compact JSON — this is a programmatic surface, unlike the
	// human-curlable synchronous endpoints.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Batch-Rows", strconv.Itoa(resp.Rows))
	w.Header().Set("X-Batch-Errors", strconv.Itoa(resp.Errors))
	w.Header().Set("X-Batch-Shed", strconv.Itoa(resp.Shed))
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(resp)
}

// streamRowFrame is one NDJSON line of a synchronous ?stream=1 response:
// the row index and the row's canonical bytes — the same bytes the
// buffered result assembles, so streamed rows are byte-identical to the
// non-streaming path.
type streamRowFrame struct {
	Row  int             `json:"row"`
	Data json.RawMessage `json:"data"`
}

// streamEndFrame terminates an NDJSON stream. Row frames never carry
// "end", so clients split on it. A mid-stream failure sets Error; a job
// stream that ended before the job finished (drain/interruption) reports
// the resume offset in NextRow with End still true.
type streamEndFrame struct {
	End   bool   `json:"end"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
	// Job streams only:
	State    jobs.State        `json:"state,omitempty"`
	NextRow  int               `json:"next_row,omitempty"`
	RowsDone int               `json:"rows_done,omitempty"`
	RowError []engine.RowError `json:"row_errors,omitempty"`
	Result   *engine.Result    `json:"result,omitempty"`
}

// streamOffset resolves the first row a streaming client wants: the
// Last-Row header (index of the last row it already holds, so emission
// starts at the next one) or the from query parameter (first row
// wanted). Zero streams from the top. This is the failover contract: a
// client cut off mid-stream by a replica crash reconnects to any other
// replica with Last-Row set, and because every replica computes
// identical bytes, the concatenation is byte-identical to one
// uninterrupted stream.
func streamOffset(r *http.Request) (int, error) {
	if v := r.Header.Get("Last-Row"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("Last-Row: %w", err)
		}
		if n < 0 {
			return 0, fmt.Errorf("Last-Row: negative row %d (a client that has no rows yet omits the header)", n)
		}
		// Every offset past the last row emits only the end frame, so
		// capping n keeps n+1 from wrapping negative.
		return min(n, math.MaxInt-1) + 1, nil
	}
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("from: %w", err)
		}
		if n < 0 {
			return 0, fmt.Errorf("from: negative row %d", n)
		}
		return n, nil
	}
	return 0, nil
}

// serveStream answers one synchronous request as an NDJSON row stream:
// rows flush as they are computed instead of buffering the whole result.
// The assembled result still primes the cache, so a later non-streaming
// query for the same request is a hit. Rows before the client's resume
// offset (Last-Row header / from parameter) are computed but not
// emitted — the row indices and bytes are deterministic, so a resumed
// stream continues exactly where the broken one stopped.
func (s *server) serveStream(w http.ResponseWriter, r *http.Request, req engine.Request) {
	from, err := streamOffset(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	rows := 0
	_, err = s.eng.Stream(ctx, req, func(i int, data json.RawMessage) error {
		rows = i + 1
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if i < from {
			return nil
		}
		if err := enc.Encode(streamRowFrame{Row: i, Data: data}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if !wrote {
			// Nothing sent yet (bad request, shed, row 0 failed): answer a
			// plain JSON error with the usual status mapping.
			s.writeError(w, err)
			return
		}
		// Mid-stream failure: the 200 header is gone; report in-band.
		_ = enc.Encode(streamEndFrame{End: true, Error: err.Error()})
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	_ = enc.Encode(streamEndFrame{End: true, Rows: rows})
	if flusher != nil {
		flusher.Flush()
	}
}

// handleJobStream streams a durable job's rows as NDJSON, live: rows
// already checkpointed replay immediately (their journaled bytes
// verbatim), later rows flush as the runner checkpoints them. The resume
// offset comes from the Last-Row header (index of the last row the
// client already holds) or the from query parameter (first row wanted);
// a reconnecting client passes what it has and receives only the rest.
// The final frame reports the job state and, when terminal, the
// assembled result.
func (s *server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	from, err := streamOffset(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if _, _, ok := s.admitRequest(w, r, 1); !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	snap, err := s.jobs.StreamRows(r.Context(), r.PathValue("id"), from, func(rs jobs.RowStatus) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(rs); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, jobs.ErrUnknownJob) {
			writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
			return
		}
		if !wrote {
			s.writeError(w, err)
		}
		// Mid-stream write failure or client cancel: nothing useful to
		// append; the client reconnects with its Last-Row.
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	end := streamEndFrame{
		End: true, Rows: snap.Rows, RowsDone: snap.RowsDone,
		State: snap.State, NextRow: snap.RowsDone,
		RowError: snap.RowErrors, Result: snap.Result,
	}
	_ = enc.Encode(end)
	if flusher != nil {
		flusher.Flush()
	}
}
