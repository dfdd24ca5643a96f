package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"netpowerprop/internal/engine"
)

// apiResponse is the buffered answer's envelope: a result with its
// serving metadata, as writeResult writes it.
type apiResponse struct {
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Result    *engine.Result `json:"result"`
}

// wantEnvelope is the body writeJSON encodes for body's own cached flag
// and elapsed_ms around res: what every buffered answer must equal.
func wantEnvelope(t *testing.T, body []byte, res *engine.Result) []byte {
	t.Helper()
	var env struct {
		Cached    bool    `json:"cached"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode envelope: %v\n%s", err, body)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, apiResponse{Cached: env.Cached, ElapsedMS: env.ElapsedMS, Result: res})
	return rec.Body.Bytes()
}

// TestServedBytesMatchWriteJSON serves every op and every scenario at its
// defaults on a one-entry cache, on a miss, on the first and a later hit,
// and after eviction both recomputed and hit again. Every body must equal,
// byte for byte, writeJSON of the same result at the same elapsed_ms: the
// hit memo and the miss encode write exactly what the envelope encoder
// would.
func TestServedBytesMatchWriteJSON(t *testing.T) {
	s, _ := newWiredServer(engine.Options{CacheSize: 1, CacheShards: 1}, time.Minute)
	ref := engine.New(engine.Options{})
	type target struct {
		path string
		req  engine.Request
	}
	var targets []target
	for _, op := range []engine.Op{engine.OpWhatIf, engine.OpTable3, engine.OpFig3, engine.OpFig4, engine.OpSweep, engine.OpCost} {
		targets = append(targets, target{"/v1/" + string(op), engine.Request{Op: op}})
	}
	for _, name := range engine.ScenarioNames() {
		targets = append(targets, target{"/v1/scenarios/" + name, engine.Request{Op: engine.OpScenario, Scenario: name}})
	}
	get := func(path, wantCache string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Cache"); got != wantCache {
			t.Fatalf("%s: X-Cache %q, want %q", path, got, wantCache)
		}
		return rec.Body.Bytes()
	}
	for i, tg := range targets {
		res, _, err := ref.Do(context.Background(), tg.req)
		if err != nil {
			t.Fatalf("%s: %v", tg.path, err)
		}
		// The next target (cyclically) evicts this one from the cache.
		evictor := targets[(i+1)%len(targets)].path
		for _, step := range []struct{ name, cache string }{
			{"miss", "MISS"}, {"first hit", "HIT"}, {"later hit", "HIT"},
			{"evict", ""}, {"recomputed", "MISS"}, {"recomputed hit", "HIT"},
		} {
			if step.name == "evict" {
				get(evictor, "MISS")
				continue
			}
			body := get(tg.path, step.cache)
			if want := wantEnvelope(t, body, res); !bytes.Equal(body, want) {
				t.Errorf("%s %s: served bytes differ from writeJSON:\n%s\nwant:\n%s", tg.path, step.name, body, want)
			}
		}
	}
}

// TestServeConcurrentFirstHit sends many concurrent requests that all
// take the first hit on one entry: every body equals writeJSON of the
// result at its own elapsed_ms. Run it under -race.
func TestServeConcurrentFirstHit(t *testing.T) {
	s, eng := newWiredServer(engine.Options{}, time.Minute)
	const path = "/v1/table3?gpus=2048"
	res, _, err := eng.Do(context.Background(), engine.Request{Op: engine.OpTable3, GPUs: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Header().Get("X-Cache") != "HIT" {
				t.Errorf("request %d: status %d, X-Cache %q", i, rec.Code, rec.Header().Get("X-Cache"))
			}
			bodies[i] = rec.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for i, body := range bodies {
		if want := wantEnvelope(t, body, res); !bytes.Equal(body, want) {
			t.Errorf("request %d: served bytes differ from writeJSON:\n%s\nwant:\n%s", i, body, want)
		}
	}
}
