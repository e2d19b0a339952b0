// The served planner: the plan lookup every page of a query makes
// before it runs, on the single node (Server.runEngine) and on the
// sharded coordinator (its pin search). NewPlanCache fixes a serving
// process's search settings (model, ρ, counted budget) for its life;
// PlanCache.Page answers a page with the engine.Options to plan it under
// and a Fill that files what it chose.
//
// A plan entry memoizes the search's output under engine.Bound.PlanKey,
// exactly what the search reads (table, row count, clause, sort columns,
// filters, SortCut, a caller's pin), so a hit replays it as
// engine.Options.PlanOverride and skips the search. Workers never reach
// the search and the settings are the cache's own, so neither is in the
// key. A LIMIT 0 page runs no search: it neither reads nor files an
// entry (its key is the unlimited query's).
//
// An order entry holds the column order of one paged query shape. A
// truncated search with a free order runs as two (planner.Search.Splits)
// and the first, the unlimited order search, reads nothing of the cut,
// so every page picks the same order: the entry is keyed by the
// unlimited page's PlanKey, in its own LRU. A page that misses its plan
// entry pins a cached order (engine.Options.FixedColOrder) and searches
// only the widths under its cut, finding the plan a fresh search would.
// Order entries are not plan-cache hits or misses (Stats,
// server.plancache_hits/misses); server.plancache_order_hits counts the
// pages that pinned one.
package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
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

// PlanCache is the served planner: a daemon's search settings and a
// bounded, mutex-guarded LRU of plan-search results, with a second LRU
// of the same capacity for order entries. Hit/miss/eviction counts of
// plan entries are kept both as always-on atomics (Stats, used by tests
// and the scheduler) and as obs metrics (visible on /metrics once obs
// is enabled).
type PlanCache struct {
	model    *costmodel.Model
	rho      float64
	maxPlans int

	mu     sync.Mutex
	plans  lru[planner.Choice]
	orders lru[[]int]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewPlanCache returns the planner of a daemon that searches with model
// under rho and the counted budget maxPlans, caching up to capacity
// entries of each kind (DefaultPlanCacheSize when capacity <= 0). A
// served search never reads the clock, so the search outcome never
// depends on machine speed: rho 0 is stored as -1 (no threshold) and a
// positive rho is refused. maxPlans <= 0 is DefaultMaxPlans. Without a
// clock the budget makes plan choice deterministic, so a cached choice
// can never change a query's result — only skip the search.
func NewPlanCache(model *costmodel.Model, rho float64, maxPlans, capacity int) (*PlanCache, error) {
	switch {
	case rho > 0:
		return nil, fmt.Errorf("Rho %g: a served plan search reads no clock (0 or negative)", rho)
	case rho == 0:
		rho = -1
	}
	if maxPlans <= 0 {
		maxPlans = DefaultMaxPlans
	}
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{model: model, rho: rho, maxPlans: maxPlans,
		plans: newLRU[planner.Choice](capacity), orders: newLRU[[]int](capacity)}, nil
}

// Page is the plan lookup of one page (PlanCache.Page).
type Page struct {
	opts  engine.Options
	cache *PlanCache
	// key is "" after a hit and on a LIMIT 0 page; orderKey is "" unless
	// the page's search splits and no earlier page filed its order.
	key, orderKey string
}

// Page looks up the page of b cut at (limit, offset), with the column
// order pinned to pin (nil: free). Its Options are the cache's search
// settings with the cut, and either the cached plan (PlanOverride) or
// the pin, or the order an earlier page of the same shape found, as
// FixedColOrder; the caller adds its per-request fields, plans under
// them and files the choice with Fill.
func (c *PlanCache) Page(b *engine.Bound, limit *int, offset int, pin []int) Page {
	p := Page{cache: c, opts: engine.Options{Massaging: true, Model: c.model, Rho: c.rho,
		MaxPlans: c.maxPlans, Offset: offset}}
	if limit != nil {
		lim := *limit
		p.opts.Limit = &lim
	}
	if len(pin) > 0 {
		p.opts.FixedColOrder = append([]int(nil), pin...)
	}
	if limit != nil && *limit <= 0 {
		return p // LIMIT 0 runs no search
	}
	key := b.PlanKey(limit, offset, pin)
	c.mu.Lock()
	choice, hit := c.plans.get(key)
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
		obsPCHits.Inc()
		p.opts.PlanOverride, p.opts.FixedColOrder = &choice, nil
		return p
	}
	c.misses.Add(1)
	obsPCMisses.Inc()
	p.key = key
	shape := costmodel.Stats{Cols: make([]costmodel.ColumnStats, len(b.Sort))}
	if !engine.NewSearch(b.Query, shape, p.opts).Splits() {
		return p
	}
	orderKey := b.PlanKey(nil, 0, nil)
	c.mu.Lock()
	order, ok := c.orders.get(orderKey)
	c.mu.Unlock()
	if ok {
		obsPCOrderHits.Inc()
		p.opts.FixedColOrder = order
	} else {
		p.orderKey = orderKey
	}
	return p
}

// Options returns the page's search options.
func (p Page) Options() engine.Options { return p.opts }

// Fill files choice, the plan the page chose, under the page's plan key
// and, on the first page of its shape, its column order as the order
// entry. It is a no-op after a hit and on a LIMIT 0 page.
func (p Page) Fill(choice planner.Choice) {
	if p.key == "" {
		return
	}
	c := p.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plans.put(p.key, choice) {
		c.evictions.Add(1)
		obsPCEvictions.Inc()
	}
	obsPCSize.Set(int64(len(c.plans.entries)))
	if p.orderKey != "" {
		c.orders.put(p.orderKey, choice.ColOrder)
	}
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
