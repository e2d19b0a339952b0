// The coordinator's plan pinning. GROUP BY / PARTITION BY output bytes
// depend on the column permutation the plan search picks, and the
// search consumes table statistics — which differ per shard. Left to
// themselves, two shards could sort the same query in different column
// orders and the gather would compare apples to oranges. The
// coordinator therefore runs the search once, over the full table's
// statistics with the deterministic keystone (MaxPlans, no clock), and
// replays the winning ColOrder on every shard via the col_order wire
// field. The choice is memoized in a server.PlanCache under the single
// node's plan key (engine.Bound.PlanKey): the search reads the full
// table, never the shard topology. A page that misses it reuses the
// cache's order entry as the single node does (PlanCache.PageOrder), so
// its pin search costs only the widths.
package shard

import (
	"context"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/server"
)

var (
	obsPinSearches = obs.NewCounter("shard.plan_pin_searches")
	obsPinHits     = obs.NewCounter("shard.plan_pin_cache_hits")
)

// pinnedChoice is a cache lookup plus the engine's own plan function
// over the full table: engine.Bound.ChoosePlan with the full table's
// filtered row count is exactly what a direct single-node run of the
// same query executes, so the pinned ColOrder is the single node's by
// construction — and the differential battery compares both.
func (c *Coordinator) pinnedChoice(ctx context.Context, b *engine.Bound, req server.QueryRequest) (planner.Choice, bool, error) {
	key := b.PlanKey(req.Limit, req.Offset, nil)
	if choice, ok := c.cache.Get(key); ok {
		obsPinHits.Inc()
		return choice, true, nil
	}
	sel, err := b.Select(ctx)
	if err != nil {
		return planner.Choice{}, false, err
	}
	obsPinSearches.Inc()
	orderKey, order := c.cache.PageOrder(b, req.Limit, req.Offset, nil)
	choice, _, err := b.ChoosePlan(ctx, sel.Count(), engine.Options{
		Massaging: true, Model: c.cfg.Model, Rho: c.cfg.Rho, MaxPlans: c.cfg.MaxPlans,
		Limit: req.Limit, Offset: req.Offset, FixedColOrder: order,
	})
	if err != nil {
		return planner.Choice{}, false, err
	}
	c.cache.Put(key, choice)
	if order == nil {
		c.cache.FillOrder(orderKey, choice.ColOrder)
	}
	return choice, false, nil
}
