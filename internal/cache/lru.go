package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
)

// CacheStats is a point-in-time snapshot of one cache's counters. The JSON
// tags are the serving layer's wire contract (/v1/stats).
type CacheStats struct {
	Hits         uint64 `json:"hits"`         // lookups answered from the cache
	Misses       uint64 `json:"misses"`       // lookups that required a computation (or joined one)
	Evictions    uint64 `json:"evictions"`    // entries dropped by the LRU policy
	Computations uint64 `json:"computations"` // underlying searches actually executed (misses minus singleflight dedup)
	Entries      int    `json:"entries"`      // entries currently resident
}

// add returns the field-wise sum of s and other.
func (s CacheStats) add(other CacheStats) CacheStats {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Computations += other.Computations
	s.Entries += other.Entries
	return s
}

// lru is a sharded, concurrency-safe LRU map. Keys are hashed onto shards
// with FNV-1a so unrelated keys contend on different locks; each shard is a
// classic map + intrusive list under one mutex. Counters are process-wide
// atomics.
type lru struct {
	shards   []*lruShard
	perShard int

	hits, misses, evictions, computations atomic.Uint64
}

type lruShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// newLRU returns an LRU holding at most ~capacity entries spread over the
// given number of shards (both floored at 1; shards are clamped to
// capacity so tiny caches are not silently inflated). Capacity is rounded
// up to a multiple of the shard count and enforced per shard, so a shard
// receiving a skewed share of keys evicts before the global capacity is
// reached.
func newLRU(capacity, shards int) *lru {
	if shards < 1 {
		shards = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	if shards > capacity {
		shards = capacity
	}
	per := (capacity + shards - 1) / shards
	c := &lru{shards: make([]*lruShard, shards), perShard: per}
	for i := range c.shards {
		c.shards[i] = &lruShard{ll: list.New(), items: map[string]*list.Element{}}
	}
	return c
}

func (c *lru) shardFor(key string) *lruShard {
	// Inline FNV-1a; no allocation.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h%uint64(len(c.shards))]
}

// get returns the cached value and bumps it to most-recently-used,
// recording a hit or miss.
func (c *lru) get(key string) (any, bool) {
	val, ok := c.touch(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// peek returns the cached value without touching the hit/miss counters:
// peer-serving and persistence probes must not distort the workload's
// cache statistics. Recency is still bumped — an exported entry is hot.
func (c *lru) peek(key string) (any, bool) { return c.touch(key) }

// touch looks the key up and bumps it to most-recently-used. The value is
// read under the shard lock: add refreshes an existing entry's value in
// place, so reading it after unlocking would race a concurrent refresh.
func (c *lru) touch(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) an entry, evicting the least recently used
// entry of the shard when over capacity.
func (c *lru) add(key string, val any) {
	// Chaos: Drop discards the entry instead of storing it — an instant
	// eviction. Correctness must not depend on an add being durable, so
	// under injection every insert may silently vanish; it is counted as
	// an eviction to keep the counter invariants honest.
	if chaos.Hit(chaos.CacheAdd, chaos.Drop)&chaos.Drop != 0 {
		c.evictions.Add(1)
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*lruEntry).val = val
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.ll.PushFront(&lruEntry{key: key, val: val})
	var evicted int
	for s.ll.Len() > c.perShard {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.items, back.Value.(*lruEntry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// keys snapshots the resident keys without touching recency or counters.
// The snapshot is per-shard consistent, not globally atomic — concurrent
// adds and evictions may or may not appear, which is fine for maintenance
// sweeps like re-keying.
func (c *lru) keys() []string {
	var out []string
	for _, s := range c.shards {
		s.mu.Lock()
		for k := range s.items {
			out = append(out, k)
		}
		s.mu.Unlock()
	}
	return out
}

// len returns the number of resident entries.
func (c *lru) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// stats snapshots the counters.
func (c *lru) stats() CacheStats {
	return CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Computations: c.computations.Load(),
		Entries:      c.len(),
	}
}
