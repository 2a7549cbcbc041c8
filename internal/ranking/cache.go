// Result caching for the batched Recommend pipeline. A Top-k-Pkg result is
// a pure function of (index, weight vector, search options): feedback
// changes which samples are in the pool, not what any vector's top-k is.
// Samples that survive a feedback round therefore reuse last round's
// packages instead of re-searching — the result-reuse observation behind
// §6's incremental maintenance, applied to the serving hot path.
package ranking

import (
	"container/list"
	"sync"

	"toppkg/internal/search"
)

// DefaultCacheSize is the entry bound applied when NewCache is given a
// non-positive capacity.
const DefaultCacheSize = 4096

// Cache is a thread-safe LRU over per-weight-vector search results, shared
// by every engine serving one catalogue (results depend only on the shared
// immutable index). Cached results are handed out by reference and must be
// treated as immutable by callers.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *cacheEntry; front = most recently used
	m     map[string]*list.Element
	epoch uint64

	hits, misses, evictions, invalidationDrops uint64
}

type cacheEntry struct {
	key string
	res search.Result
}

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	// Size is the resident entry count; Capacity the LRU bound.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Epoch counts Invalidate calls; it is folded into every key so a
	// result computed before an invalidation can never be served after it.
	Epoch uint64 `json:"epoch"`
	// Hits/Misses count Get outcomes; Evictions counts LRU drops.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// InvalidationDrops counts entries dropped by Invalidate — every
	// catalogue epoch swap invalidates the whole cache. Together with
	// Evictions it accounts for every entry that ever left the cache.
	InvalidationDrops uint64 `json:"invalidation_drops"`
	// Retained, ReconcileDrops and Revived are always 0. No entry survives
	// an epoch swap; the fields stay so existing readers of the counters
	// keep decoding them.
	Retained       uint64 `json:"retained"`
	ReconcileDrops uint64 `json:"reconcile_drops"`
	Revived        uint64 `json:"revived"`
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Epoch returns the current invalidation epoch. Callers fold it into the
// keys they Get/Put, so entries keyed under an older epoch become
// unreachable the moment Invalidate runs — even a Put racing with the
// invalidation lands on a dead key instead of resurrecting a stale result.
func (c *Cache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Invalidate advances the epoch and drops every entry. Use it when
// something outside the keys that results depend on changes — e.g. the
// index is rebuilt over an updated catalogue.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.epoch++
	c.invalidationDrops += uint64(c.ll.Len())
	c.ll.Init()
	c.m = make(map[string]*list.Element)
	c.mu.Unlock()
}

// Get returns the cached result for key. The result is shared: callers
// must not mutate it or anything it references.
func (c *Cache) Get(key string) (search.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		return search.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).res, true
}

// Put stores a result under key, evicting the least recently used entry
// beyond capacity. The cache takes shared ownership: the caller must not
// mutate res or anything it references afterwards.
func (c *Cache) Put(key string, res search.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).res = res
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		ent := c.ll.Remove(back).(*cacheEntry)
		delete(c.m, ent.key)
		c.evictions++
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a point-in-time copy of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:              c.ll.Len(),
		Capacity:          c.cap,
		Epoch:             c.epoch,
		Hits:              c.hits,
		Misses:            c.misses,
		Evictions:         c.evictions,
		InvalidationDrops: c.invalidationDrops,
	}
}

// Range calls fn for every resident entry under the cache lock, stopping
// early when fn returns false. For tests and diagnostics; fn must not call
// back into the cache or mutate the results.
func (c *Cache) Range(fn func(key string, res search.Result) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if !fn(ent.key, ent.res) {
			return
		}
	}
}
