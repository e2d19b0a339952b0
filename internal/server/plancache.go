// Plan cache: memoizes ROGA plan-search output per query signature so
// repeated queries skip the search entirely (engine.Options.PlanOverride
// carries the cached choice back into RunContext). Entries are keyed by
// everything the search result depends on — table, clause kind, the
// sort-column list with widths and directions, the filter signature
// (filters change the row count the cost model sees), rho, and the
// worker count. The cost model is not part of the key: a process holds
// one model, fixed at start, for its whole life.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/planner"
)

var (
	obsPCHits      = obs.NewCounter("server.plancache_hits")
	obsPCMisses    = obs.NewCounter("server.plancache_misses")
	obsPCEvictions = obs.NewCounter("server.plancache_evictions")
	obsPCSize      = obs.NewGauge("server.plancache_size")
)

// DefaultPlanCacheSize bounds the cache when Config.PlanCacheSize is 0.
const DefaultPlanCacheSize = 256

// planEntry is one memoized search result; it is the Value of its LRU
// list element.
type planEntry struct {
	key    string
	choice planner.Choice
}

// PlanCache is a bounded, mutex-guarded LRU of plan-search results.
// Hit/miss/eviction counts are kept both as always-on atomics (Stats,
// used by tests and the scheduler) and as obs metrics (visible on
// /metrics once obs is enabled).
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewPlanCache returns a cache holding up to capacity entries
// (DefaultPlanCacheSize when capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{cap: capacity, entries: make(map[string]*list.Element), lru: list.New()}
}

// Get returns the memoized choice for key, if present.
func (c *PlanCache) Get(key string) (planner.Choice, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		c.misses.Add(1)
		obsPCMisses.Inc()
		return planner.Choice{}, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	obsPCHits.Inc()
	return el.Value.(*planEntry).choice, true
}

// Put memoizes choice under key, evicting the least recently used entry
// when the cache is full.
func (c *PlanCache) Put(key string, choice planner.Choice) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		el.Value.(*planEntry).choice = choice
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&planEntry{key: key, choice: choice})
	if c.lru.Len() > c.cap {
		lru := c.lru.Remove(c.lru.Back()).(*planEntry)
		delete(c.entries, lru.key)
		c.evictions.Add(1)
		obsPCEvictions.Inc()
	}
	obsPCSize.Set(int64(len(c.entries)))
}

// Len returns the number of live entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative hit/miss/eviction counts. They are
// monotone for the life of the cache regardless of obs state.
func (c *PlanCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
