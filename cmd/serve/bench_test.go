package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"netpowerprop/internal/engine"
)

// BenchmarkServeBatch measures the amortized batch serving path: one
// 64-row /v1/batch POST through the full handler stack (decode,
// admission, normalize/key/cache, dispatch, compact encode). The body
// repeats across iterations, so after the first pass every row is a
// cache hit — the number is the per-call overhead batching exists to
// amortize, not the row computation.
func BenchmarkServeBatch(b *testing.B) {
	s, _ := newWiredServer(engine.Options{MaxQueue: 4096}, time.Minute)
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op":"whatif","gpus":%d}`, 1024+i)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeStream measures the NDJSON row-streaming path: a 33-row
// sweep streamed frame by frame (row execution, per-row encode, flush).
// Streams always execute rows — the cache serves the buffered path — so
// this is the live streaming cost, not a cache read.
func BenchmarkServeStream(b *testing.B) {
	s, _ := newWiredServer(engine.Options{MaxQueue: 4096}, time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/sweep?steps=32&stream=1", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// hitMix is BenchmarkServeHit's request cycle: 20 GET queries in the
// whatif-hot load's 70/15/15 whatif/cost/table3 mix, each over a distinct
// cluster scenario drawn from a fixed seed.
func hitMix() []string {
	r := rand.New(rand.NewPCG(11, 0))
	ops := []string{"table3", "table3", "table3", "cost", "cost", "cost"}
	for len(ops) < 20 {
		ops = append(ops, "whatif")
	}
	paths := make([]string, len(ops))
	for i, op := range ops {
		q := url.Values{}
		q.Set("gpus", strconv.Itoa([]int{1024, 2048, 4096, 8192, 15360}[r.IntN(5)]))
		q.Set("bw", []string{"100G", "200G", "400G", "800G"}[r.IntN(4)])
		q.Set("ratio", strconv.FormatFloat(0.05+0.45*r.Float64(), 'g', -1, 64))
		q.Set("netprop", strconv.FormatFloat(0.1+0.9*r.Float64(), 'g', -1, 64))
		paths[i] = "/v1/" + op + "?" + q.Encode()
	}
	return paths
}

// BenchmarkServeHit measures a buffered cache hit through the full
// handler stack: one GET of hitMix per iteration, every one answered from
// the cache (each query is sent once before the timer starts). It is the
// serving path of the whatif-hot load with the engine idle: decode,
// admission, normalize/key, cache probe, and the response encode.
func BenchmarkServeHit(b *testing.B) {
	s, _ := newWiredServer(engine.Options{}, time.Minute)
	paths := hitMix()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec
	}
	for _, p := range paths {
		get(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := get(paths[i%len(paths)]); rec.Header().Get("X-Cache") != "HIT" {
			b.Fatalf("%s: X-Cache %q, want HIT", paths[i%len(paths)], rec.Header().Get("X-Cache"))
		}
	}
}
