// The coordinator's plan pinning. GROUP BY / PARTITION BY output bytes
// depend on the column permutation the plan search picks, and the
// search consumes table statistics — which differ per shard. Left to
// themselves, two shards could sort the same query in different column
// orders and the gather would compare apples to oranges. The
// coordinator therefore runs the search once, over the full table's
// statistics with the deterministic keystone (MaxPlans, no clock), and
// replays the winning ColOrder on every shard via the col_order wire
// field. Its server.PlanCache is the single node's served planner: the
// same lookup (PlanCache.Page) under the single node's plan key, which
// reads the full table, never the shard topology, and the same order
// entries, so a page that misses its plan entry pins the order an
// earlier page found and its pin search costs only the widths.
package shard

import (
	"context"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/server"
)

// pinnedChoice is a cache lookup plus the engine's own plan function
// over the full table: engine.Bound.ChoosePlan with the full table's
// filtered row count is exactly what a direct single-node run of the
// same query executes, so the pinned ColOrder is the single node's by
// construction — and the differential battery compares both.
func (c *Coordinator) pinnedChoice(ctx context.Context, b *engine.Bound, req server.QueryRequest, workers int) (planner.Choice, bool, error) {
	page := c.cache.Page(b, req.Limit, req.Offset, nil)
	if hit := page.Options().PlanOverride; hit != nil {
		return *hit, true, nil
	}
	sel, err := b.Select(ctx, workers)
	if err != nil {
		return planner.Choice{}, false, err
	}
	choice, _, err := b.ChoosePlan(ctx, sel.Count(), page.Options())
	if err != nil {
		return planner.Choice{}, false, err
	}
	page.Fill(choice)
	return choice, false, nil
}
