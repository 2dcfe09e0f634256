package plan

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheShards fixes the shard count of the hot-range cache. Sixteen
// shards keep lock contention negligible at the serving layer's
// batch fan-out width while the per-shard LRU lists stay long enough
// to be useful.
const cacheShards = 16

// Key identifies one cached answer. Version is the snapshot version the
// answer was computed against: a rebuild bumps the version, so entries
// from the previous snapshot can never satisfy a lookup for the new one
// — staleness is impossible by construction, and dead entries age out
// of the LRU instead of needing invalidation.
type Key struct {
	// Metric is the view's metric name ("count", "sum").
	Metric string
	// Source is the synopsis the answer came from.
	Source string
	// A, B are the clamped query endpoints.
	A, B int
	// Version is the snapshot version the answer was computed against.
	Version int64
}

// cached is the stored portion of an answer: everything except the
// path, which depends on how a particular query reached it.
type cached struct {
	value    float64
	bound    float64
	rigorous bool
}

// Cache is a sharded LRU of per-range answers keyed by
// {metric, source, range, snapshot version}.
type Cache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*list.Element
	order   *list.List // front = most recent
}

type cacheEntry struct {
	key Key
	val cached
}

// NewCache builds a cache holding about entries answers in total;
// entries ≤ 0 returns nil (caching disabled — a nil *Cache is safe to
// use and never hits).
func NewCache(entries int) *Cache {
	if entries <= 0 {
		return nil
	}
	perShard := entries / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].entries = make(map[Key]*list.Element, perShard)
		c.shards[i].order = list.New()
	}
	return c
}

// shard picks the shard for a key by FNV-1a over its fields.
func (c *Cache) shard(k Key) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range [2]string{k.Metric, k.Source} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h = (h ^ 0xff) * prime64
	}
	for _, v := range [3]uint64{uint64(k.A), uint64(k.B), uint64(k.Version)} {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	return &c.shards[h%cacheShards]
}

// lookup returns the cached answer for k, marking it most recently
// used. It does not count the hit or miss; the planner tallies them and
// adds them with count.
func (c *Cache) lookup(k Key) (cached, bool) {
	if c == nil {
		return cached{}, false
	}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.order.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		return cached{}, false
	}
	return el.Value.(*cacheEntry).val, true
}

// count adds hits and misses to the cache's cumulative counters.
func (c *Cache) count(hits, misses int64) {
	if c == nil {
		return
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
}

// put stores an answer for k, evicting the least recently used entry of
// the shard when full.
func (c *Cache) put(k Key, v cached) {
	if c == nil {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*cacheEntry).val = v
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	s.entries[k] = s.order.PushFront(&cacheEntry{key: k, val: v})
}

// CacheStats reports cumulative hit and miss counts.
type CacheStats struct {
	Hits, Misses int64
}

// Stats returns the cache's cumulative hit/miss counters; a nil cache
// reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len returns the number of live entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
