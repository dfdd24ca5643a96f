package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheGetAdd(t *testing.T) {
	c := newCache(4, 2)
	if ent := c.Get("a"); ent != nil {
		t.Error("Get on empty cache returned a value")
	}
	r := &Result{Op: OpWhatIf}
	c.Add("a", r)
	if ent := c.Get("a"); ent == nil || ent.res != r {
		t.Errorf("Get(a) = %v", ent)
	}
	// Re-adding the same key refreshes, not duplicates.
	c.Add("a", &Result{Op: OpTable3})
	if c.Len() != 1 {
		t.Errorf("Len = %d after refresh, want 1", c.Len())
	}
	if got := c.Get("a").res; got.Op != OpTable3 {
		t.Errorf("refresh did not replace value: %v", got.Op)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2, 1)
	c.Add("a", &Result{})
	c.Add("b", &Result{})
	// Touch "a" so "b" is the LRU victim.
	c.Get("a")
	c.Add("c", &Result{})
	if c.Get("b") != nil {
		t.Error("LRU victim b still cached")
	}
	if c.Get("a") == nil {
		t.Error("recently used a was evicted")
	}
	if c.Get("c") == nil {
		t.Error("new entry c missing")
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
}

func TestCacheShardBounds(t *testing.T) {
	// Degenerate parameters still give a working cache.
	c := newCache(0, 0)
	c.Add("a", &Result{})
	if c.Get("a") == nil {
		t.Error("degenerate cache lost its entry")
	}
	// Population never exceeds (per-shard capacity) x shards.
	c = newCache(10, 4)
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprintf("k%d", i), &Result{})
	}
	if c.Len() > 12 { // ceil(10/4)=3 per shard x 4 shards
		t.Errorf("Len = %d exceeds sharded capacity", c.Len())
	}
}

func TestFlightGroupCollapse(t *testing.T) {
	g := newFlightGroup()
	var calls, entered, sharedCount atomic.Int32
	block := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			res, shared, err := g.do(context.Background(), "k", func() (*Result, error) {
				calls.Add(1)
				<-block
				return &Result{Op: OpWhatIf}, nil
			})
			if err != nil || res == nil {
				t.Errorf("do: res=%v err=%v", res, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Release the leader only once every goroutine is about to enter (or
	// already parked in) the flight group, so the calls collapse.
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(block)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Errorf("shared count = %d, want %d", sharedCount.Load(), n-1)
	}
}

func TestFlightGroupWaiterCancel(t *testing.T) {
	g := newFlightGroup()
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.do(context.Background(), "k", func() (*Result, error) {
			close(leaderIn)
			<-block
			return &Result{}, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.do(ctx, "k", func() (*Result, error) {
		t.Error("follower ran fn")
		return nil, nil
	})
	if err == nil || !shared {
		t.Errorf("canceled waiter: shared=%v err=%v", shared, err)
	}
	close(block)
	<-done
}

// TestDoJSONHitMemo walks one key through a miss, its first and later
// hits, a refresh and an eviction: a miss encodes afresh and stores
// nothing, the first hit encodes the result once, later hits share those
// bytes, and a refreshed or evicted entry's memo is never served again.
func TestDoJSONHitMemo(t *testing.T) {
	e := New(Options{CacheSize: 1, CacheShards: 1})
	ctx := context.Background()
	req := Request{Op: OpWhatIf}
	miss, cached, err := e.DoJSON(ctx, req)
	if err != nil || cached {
		t.Fatalf("miss: cached=%v err=%v", cached, err)
	}
	res, _, _ := e.Do(ctx, req)
	want, err := json.MarshalIndent(res, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(miss, want) {
		t.Fatalf("miss bytes differ from MarshalIndent:\n%s\nwant:\n%s", miss, want)
	}
	first, cached, err := e.DoJSON(ctx, req)
	if err != nil || !cached || !bytes.Equal(first, want) {
		t.Fatalf("first hit: cached=%v err=%v, bytes equal MarshalIndent: %v", cached, err, bytes.Equal(first, want))
	}
	if &first[0] == &miss[0] {
		t.Error("the miss stored its bytes on the entry")
	}
	if later, _, _ := e.DoJSON(ctx, req); &later[0] != &first[0] {
		t.Error("a later hit encoded the result again instead of sharing the memo")
	}
	// A refresh replaces the entry, so its old memo goes with it.
	e.Prime(keyOf(t, req), &Result{Op: OpWhatIf, Request: res.Request})
	if refreshed, _, _ := e.DoJSON(ctx, req); bytes.Equal(refreshed, first) {
		t.Error("a refreshed entry served the old result's memo")
	}
	// Evicting the entry (capacity 1) drops the memo: the key misses and
	// is recomputed, and its next hit encodes a memo of its own.
	if _, _, err := e.Do(ctx, Request{Op: OpCost}); err != nil {
		t.Fatal(err)
	}
	if _, cached, _ := e.DoJSON(ctx, req); cached {
		t.Fatal("the evicted key still hit")
	}
	if again, _, _ := e.DoJSON(ctx, req); !bytes.Equal(again, want) || &again[0] == &first[0] {
		t.Error("the recomputed entry's first hit did not encode its own memo")
	}
}

// keyOf is the canonical key an engine caches req under.
func keyOf(t *testing.T, req Request) string {
	t.Helper()
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm.Key()
}

// TestDoJSONConcurrentFirstHit makes many goroutines take the first hit
// on one entry at once: the result is encoded once, and every caller gets
// those same bytes. Run it under -race.
func TestDoJSONConcurrentFirstHit(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	req := Request{Op: OpTable3}
	res, _, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(res, "  ", "  ")
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
			body, cached, err := e.DoJSON(ctx, req)
			if err != nil || !cached {
				t.Errorf("hit %d: cached=%v err=%v", i, cached, err)
			}
			bodies[i] = body
		}()
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("hit %d bytes differ from MarshalIndent", i)
		}
		if &b[0] != &bodies[0][0] {
			t.Errorf("hit %d got its own encoding, want the one shared memo", i)
		}
	}
}
