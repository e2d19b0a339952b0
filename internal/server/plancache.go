// Plan cache: memoizes the plan search's output per query signature so
// repeated queries skip the search entirely (engine.Options.PlanOverride
// carries the cached choice back into RunContext). A plan entry is keyed
// by engine.Bound.PlanKey, exactly what the search reads: the table and
// its row count, the clause kind, the sort columns with widths and
// directions, the filters (they set the row count the cost model sees),
// the SortCut and a caller's pinned order. Neither workers nor the
// model, rho and the plan budget are part of it: workers never reach
// the search, and the others are fixed for a serving process's life.
//
// Beside the plan entries the cache keeps order entries, one per paged
// query shape (engine.Bound.OrderKey: PlanKey without the cut). A
// truncated search with a free column order runs as two searches
// (planner.Search.Splits); the first, the unlimited order search, reads
// nothing of the cut, so every page of the query picks the same order.
// An order entry holds it, and a page that misses its own plan entry
// pins it (engine.Options.FixedColOrder) to run only the second half,
// the width search under the cut: the plan a fresh search would find,
// for a fraction of the work. Order entries are not plan-cache hits or
// misses (Stats, server.plancache_hits/misses count plan entries only);
// server.plancache_order_hits counts the pages that pinned one.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/planner"
)

var (
	obsPCHits      = obs.NewCounter("server.plancache_hits")
	obsPCMisses    = obs.NewCounter("server.plancache_misses")
	obsPCEvictions = obs.NewCounter("server.plancache_evictions")
	obsPCSize      = obs.NewGauge("server.plancache_size")
	obsPCOrderHits = obs.NewCounter("server.plancache_order_hits")
)

// DefaultPlanCacheSize bounds the cache when Config.PlanCacheSize is 0.
const DefaultPlanCacheSize = 256

// lru is a bounded least-recently-used map; its owner holds the lock.
type lru[V any] struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// lruEntry is the Value of an lru list element.
type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

func (l *lru[V]) get(key string) (V, bool) {
	el := l.entries[key]
	if el == nil {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key and reports whether it evicted the least
// recently used entry to make room.
func (l *lru[V]) put(key string, val V) (evicted bool) {
	if el := l.entries[key]; el != nil {
		el.Value.(*lruEntry[V]).val = val
		l.order.MoveToFront(el)
		return false
	}
	l.entries[key] = l.order.PushFront(&lruEntry[V]{key: key, val: val})
	if l.order.Len() <= l.cap {
		return false
	}
	delete(l.entries, l.order.Remove(l.order.Back()).(*lruEntry[V]).key)
	return true
}

// PlanCache is a bounded, mutex-guarded LRU of plan-search results,
// with a second LRU of the same capacity for order entries.
// Hit/miss/eviction counts of plan entries are kept both as always-on
// atomics (Stats, used by tests and the scheduler) and as obs metrics
// (visible on /metrics once obs is enabled).
type PlanCache struct {
	mu     sync.Mutex
	plans  lru[planner.Choice]
	orders lru[[]int]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewPlanCache returns a cache holding up to capacity entries of each
// kind (DefaultPlanCacheSize when capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{plans: newLRU[planner.Choice](capacity), orders: newLRU[[]int](capacity)}
}

// Get returns the memoized choice for key, if present.
func (c *PlanCache) Get(key string) (planner.Choice, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	choice, ok := c.plans.get(key)
	if !ok {
		c.misses.Add(1)
		obsPCMisses.Inc()
		return planner.Choice{}, false
	}
	c.hits.Add(1)
	obsPCHits.Inc()
	return choice, true
}

// Put memoizes choice under key, evicting the least recently used entry
// when the cache is full.
func (c *PlanCache) Put(key string, choice planner.Choice) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plans.put(key, choice) {
		c.evictions.Add(1)
		obsPCEvictions.Inc()
	}
	obsPCSize.Set(int64(len(c.plans.entries)))
}

// PageOrder is the order-entry lookup of a page — b cut at (limit,
// offset) with the caller's pin — that missed its own plan entry. key
// is the page's order key, "" when its search does not split (it then
// neither reads nor fills an order entry); order is the column order
// an earlier page of the same shape found, nil if none has. A non-nil
// order goes in as engine.Options.FixedColOrder; after a nil one the
// caller fills the entry with FillOrder from the page's own chosen
// order, which the split's first half picked.
func (c *PlanCache) PageOrder(b *engine.Bound, limit *int, offset int, pin []int) (key string, order []int) {
	key, ok := b.OrderKey(limit, offset, pin)
	if !ok {
		return "", nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if order, ok = c.orders.get(key); ok {
		obsPCOrderHits.Inc()
	}
	return key, order
}

// FillOrder stores order under an order key from PageOrder; "" is a
// no-op.
func (c *PlanCache) FillOrder(key string, order []int) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.orders.put(key, order)
}

// Len returns the number of live plan entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans.entries)
}

// OrderLen returns the number of live order entries.
func (c *PlanCache) OrderLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.orders.entries)
}

// Stats returns the cumulative hit/miss/eviction counts of plan
// entries. They are monotone for the life of the cache regardless of
// obs state.
func (c *PlanCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
