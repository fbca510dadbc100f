// Package plancache provides the concurrency-safe, sharded LRU cache the
// engine uses to amortize query preparation (parse → bind → rewrite →
// cleanup → cost) across repeated executions. Keys are opaque strings the
// caller derives from the normalized statement text plus every knob that
// influences the produced plan; values are opaque (the engine stores
// *engine.Prepared — this package stays below the engine to avoid a cycle).
//
// Staleness is handled by epochs, not by enumerating dependents: the engine
// bumps its catalog/view epoch on every DDL (CreateView/DropView), and a
// cached entry whose recorded epoch differs from the caller's current epoch
// is discarded on lookup instead of served. Hit, miss, eviction, and
// invalidation counts are published to the process-wide trace.Metrics
// registry under plancache.*.
package plancache

import (
	"container/list"
	"sync"
	"time"

	"decorr/internal/trace"
)

// shardCount spreads keys over independently locked shards so concurrent
// clients rarely contend; a power of two keeps the modulo cheap.
const shardCount = 16

// Cache is a sharded LRU keyed by string with epoch-based invalidation.
// All methods are safe for concurrent use.
type Cache struct {
	shards   [shardCount]shard
	shardCap int

	hits          *trace.Counter
	misses        *trace.Counter
	evictions     *trace.Counter
	invalidations *trace.Counter
	hitLat        *trace.Histogram
	missLat       *trace.Histogram
}

type shard struct {
	mu  sync.Mutex
	lru *list.List // front = most recently used; element values are *entry
	m   map[string]*list.Element
}

type entry struct {
	key   string
	epoch uint64
	v     any
}

// New creates a cache holding about capacity entries in total (split
// evenly across shards, at least one per shard). Non-positive capacity
// selects the default of 256.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	c := &Cache{
		shardCap:      (capacity + shardCount - 1) / shardCount,
		hits:          trace.Metrics.Counter("plancache.hits"),
		misses:        trace.Metrics.Counter("plancache.misses"),
		evictions:     trace.Metrics.Counter("plancache.evictions"),
		invalidations: trace.Metrics.Counter("plancache.invalidations"),
		hitLat:        trace.Metrics.Histogram("plancache.get.hit"),
		missLat:       trace.Metrics.Histogram("plancache.get.miss"),
	}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].m = map[string]*list.Element{}
	}
	return c
}

// shardOf picks the shard for a key (FNV-1a).
func (c *Cache) shardOf(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%shardCount]
}

// Get returns the value cached under key if it is present and was stored
// at the given epoch. A present-but-stale entry counts as an invalidation
// (and a miss) and is removed so it cannot be served later. Lookup wall
// time records into the plancache.get.hit / plancache.get.miss histograms,
// so shard-lock contention under concurrent clients is observable rather
// than inferred from the aggregate counters.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	start := time.Now()
	s := c.shardOf(key)
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		c.missLat.Observe(time.Since(start).Nanoseconds())
		return nil, false
	}
	e := el.Value.(*entry)
	if e.epoch != epoch {
		s.lru.Remove(el)
		delete(s.m, key)
		s.mu.Unlock()
		c.invalidations.Inc()
		c.misses.Inc()
		c.missLat.Observe(time.Since(start).Nanoseconds())
		return nil, false
	}
	s.lru.MoveToFront(el)
	v := e.v // read under the lock: Put overwrites an existing entry's value in place
	s.mu.Unlock()
	c.hits.Inc()
	c.hitLat.Observe(time.Since(start).Nanoseconds())
	return v, true
}

// Put stores v under key at the given epoch, replacing any existing entry
// and evicting the least recently used entry of the shard when full.
func (c *Cache) Put(key string, epoch uint64, v any) {
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*entry)
		e.epoch = epoch
		e.v = v
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[key] = s.lru.PushFront(&entry{key: key, epoch: epoch, v: v})
	var evicted bool
	if s.lru.Len() > c.shardCap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.m, back.Value.(*entry).key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// ShardStat is the occupancy of one cache shard.
type ShardStat struct {
	// Entries is the number of live entries in the shard.
	Entries int
	// Capacity is the shard's entry cap (total capacity / shard count).
	Capacity int
}

// ShardStats reports per-shard occupancy in shard order — the engine's
// sys.plan_cache table emits one row per shard from this, which is how a
// skewed key distribution (hot shard evicting while others sit empty)
// becomes visible.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, shardCount)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardStat{Entries: s.lru.Len(), Capacity: c.shardCap}
		s.mu.Unlock()
	}
	return out
}

// Len reports the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry (counted neither as eviction nor invalidation:
// it is an operator action, not a policy decision).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.Init()
		s.m = map[string]*list.Element{}
		s.mu.Unlock()
	}
}

// Stats is a point-in-time copy of the process-wide plancache counters.
// Note the counters are registry-global: every Cache in the process feeds
// the same instruments (matching how trace.Metrics is used elsewhere).
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
}

// StatsNow reads the current counter values.
func StatsNow() Stats {
	return Stats{
		Hits:          trace.Metrics.Counter("plancache.hits").Value(),
		Misses:        trace.Metrics.Counter("plancache.misses").Value(),
		Evictions:     trace.Metrics.Counter("plancache.evictions").Value(),
		Invalidations: trace.Metrics.Counter("plancache.invalidations").Value(),
	}
}
