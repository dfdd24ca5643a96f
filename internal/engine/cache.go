package engine

import (
	"container/list"
	"encoding/json"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// cache is a sharded LRU over canonical request keys. Sharding keeps the
// hot serving path from serializing on one mutex; each shard holds its own
// recency list, so eviction is LRU per shard (and therefore approximately
// LRU overall).
type cache struct {
	shards []*cacheShard
}

type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions atomic.Uint64
}

// cacheEntry is one cached result. An entry is never modified once
// added, except to fill its hit memo: Add replaces a refreshed key's
// entry instead of its res, so a memo always encodes its own entry's res.
type cacheEntry struct {
	key string
	res *Result
	// hitOnce fills hitJSON, indentJSON of res (see Engine.DoJSON), on
	// the entry's first DoJSON hit. The bytes live exactly as long as the
	// entry: eviction drops both.
	hitOnce sync.Once
	hitJSON []byte
}

// indented returns the entry's memoized indentJSON of res, encoding it
// on the first call. Concurrent first calls encode once and all return
// the same bytes.
func (ent *cacheEntry) indented() []byte {
	ent.hitOnce.Do(func() { ent.hitJSON = indentJSON(ent.res) })
	return ent.hitJSON
}

// indentJSON encodes res as it sits one level deep in an indented JSON
// envelope, or returns nil if res cannot be encoded.
func indentJSON(res *Result) []byte {
	b, err := json.MarshalIndent(res, "  ", "  ")
	if err != nil {
		return nil
	}
	return b
}

// newCache builds a cache with the given total capacity split across
// shards. Each shard holds at least one entry.
func newCache(capacity, shards int) *cache {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		capacity = shards
	}
	per := (capacity + shards - 1) / shards
	c := &cache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			capacity: per,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
		}
	}
	return c
}

func (c *cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// Get returns the cache entry for key, refreshing its recency, or nil.
func (c *cache) Get(key string) *cacheEntry {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// Add inserts (or refreshes) a result, evicting the shard's least
// recently used entry when over capacity.
func (c *cache) Add(key string, res *Result) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value = &cacheEntry{key: key, res: res}
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, res: res})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions.Add(1)
	}
}

// Len returns the number of cached entries across all shards.
func (c *cache) Len() int {
	var n int
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Evictions returns the total entries evicted across all shards.
func (c *cache) Evictions() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.evictions.Load()
	}
	return n
}
