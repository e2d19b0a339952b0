package planner

import (
	"context"

	"repro/internal/obs"
)

// Plan-search observability. Writes are no-ops until obs.Enable().
var (
	obsSearches      = obs.NewCounter("planner.searches")
	obsOrders        = obs.NewCounter("planner.orders_considered")
	obsPlansCosted   = obs.NewCounter("planner.plans_costed")
	obsSearchExpired = obs.NewCounter("planner.searches_expired")
	obsSearchCapped  = obs.NewCounter("planner.searches_plan_capped")
	obsChosenCostNS  = obs.NewGauge("planner.chosen_cost_ns")
	obsChosenRounds  = obs.NewGauge("planner.chosen_rounds")
	obsSearchT       = obs.NewTimer("planner.search")
)

// ROGAContext is the plan search. For every column order the search
// allows (Search.Orders) it takes the order's exact optimum under the
// cost model, a shortest path over the order's bit positions
// (costmodel.Profile.Optimal), and keeps the first strictly cheapest.
// The paper's ROGA (Algorithm 1), whose bank enumeration and greedy
// widths only approximate that optimum, lives with the experiments that
// rank it; the name stays because bench/mcsperf calls it.
//
// MaxPlans counts rounds costed, Profile.Edges per order: an order is
// searched whole or not at all, and the first order always is. The
// context is read before every order and the ρ stopwatch before every
// order but the first, so the clock never ends a search before its
// first optimum. A search cancelled before its first order returns no
// plan; otherwise the returned Choice is the best plan found so far —
// still valid if the caller prefers degraded planning over failing the
// query.
//
// A truncated search (Stats.LimitRows or LimitGroups set) whose column
// order is free sorts in the order the same search without the limit
// chooses: the output follows the column order, so a LIMIT/OFFSET
// result stays the unlimited result sliced, and the pages of one query
// are cut from one order (docs/topk.md). It runs as two searches, each
// with its own ρ stopwatch and MaxPlans budget: the unlimited one
// picks the order, then the widths are searched under the limit with
// that order pinned.
func ROGAContext(ctx context.Context, s *Search) (Choice, error) {
	obsSearches.Inc()
	span := obsSearchT.Start()
	defer span.End()
	var best Choice
	var err error
	if s.Splits() {
		unlimited := *s
		unlimited.Stats.LimitRows, unlimited.Stats.LimitGroups = 0, 0
		if best, err = search(ctx, &unlimited); err == nil {
			pinned := *s
			pinned.FixedOrder = best.ColOrder
			best, err = search(ctx, &pinned)
		}
	} else {
		best, err = search(ctx, s)
	}
	obsChosenCostNS.Set(int64(best.Est))
	obsChosenRounds.Set(int64(len(best.Plan.Rounds)))
	return best, err
}

// Splits reports whether ROGAContext runs s as two searches: a
// truncated search whose column order is free to move. Its first half
// reads nothing of the limit, so any truncated search of the same
// query picks the same order, and a caller that has it may pin it
// (FixedOrder) to run the second half alone.
func (s *Search) Splits() bool {
	return len(s.FixedOrder) == 0 && s.FreePrefix() > 1 && (s.Stats.LimitRows > 0 || s.Stats.LimitGroups > 0)
}

// search is one search over the orders s allows, the limit included.
func search(ctx context.Context, s *Search) (Choice, error) {
	sw := s.Stopwatch()
	var best Choice
	var err error
	orders, costed, edges := 0, 0, 0 // edges: rounds per order, the same for every order
	s.Orders(func(order []int) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		if orders > 0 {
			if sw.Expired(best.Est) {
				obsSearchExpired.Inc()
				return false
			}
			if s.MaxPlans > 0 && costed+edges > s.MaxPlans {
				obsSearchCapped.Inc()
				return false
			}
		}
		obsOrders.Inc()
		pf := s.Model.Profile(s.Stats.Permute(order))
		p, est := pf.Optimal()
		edges = pf.Edges()
		costed += edges
		obsPlansCosted.Add(int64(edges))
		if orders == 0 || est < best.Est {
			best = Choice{ColOrder: append([]int(nil), order...), Plan: p, Est: est}
		}
		orders++
		return true
	})
	return best, err
}
