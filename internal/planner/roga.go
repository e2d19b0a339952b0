package planner

import (
	"context"
	"time"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Plan-search observability. Writes are no-ops until obs.Enable().
var (
	obsSearches      = obs.NewCounter("planner.searches")
	obsOrders        = obs.NewCounter("planner.orders_considered")
	obsRoundCounts   = obs.NewCounter("planner.round_counts_considered")
	obsPlansCosted   = obs.NewCounter("planner.plans_costed")
	obsSearchExpired = obs.NewCounter("planner.searches_expired")
	obsSearchCapped  = obs.NewCounter("planner.searches_plan_capped")
	obsChosenCostNS  = obs.NewGauge("planner.chosen_cost_ns")
	obsChosenRounds  = obs.NewGauge("planner.chosen_rounds")
	obsSearchT       = obs.NewTimer("planner.roga_search")
)

// ROGAContext runs the paper's round-based greedy plan search
// (Algorithm 1): it considers plans with k = 1 … ⌊2(W−1)/b_min⌋+1
// rounds; within each k, it enumerates valid bank-size combinations and
// greedily assigns bits to each round so as to minimize the next
// round's sorting cost, giving the remainder to the last round. For
// GROUP BY / PARTITION BY the whole search repeats per column
// permutation. The ρ stopwatch bounds the search time relative to the
// best plan found so far, and the context is polled at the same
// granularity (once per candidate plan), so a cancelled search returns
// ctx.Err() promptly. The returned Choice is the best plan found so far
// — still valid if the caller prefers degraded planning over failing
// the query.
func ROGAContext(ctx context.Context, s *Search) (Choice, error) {
	obsSearches.Inc()
	span := obsSearchT.Start()
	defer span.End()
	sw := &stopwatch{start: time.Now(), rho: s.rho()}
	best := s.baseline()
	m := len(s.Stats.Cols)
	costed := 0
	var ctxErr error

	tryOrder := func(order []int) bool {
		obsOrders.Inc()
		st := s.Stats.Permute(order)
		W := st.TotalWidth()
		maxK := plan.MaxRounds(W)
		for k := 1; k <= maxK; k++ {
			obsRoundCounts.Inc()
			done := forEachBankCombo(k, W, func(banks []int) bool {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
				if sw.expired(best.Est) {
					obsSearchExpired.Inc()
					return false
				}
				if s.MaxPlans > 0 && costed >= s.MaxPlans {
					obsSearchCapped.Inc()
					return false
				}
				p, ok := greedyAssign(s, st, W, banks)
				if !ok {
					return true
				}
				costed++
				obsPlansCosted.Inc()
				if est := s.Model.TMCS(p, st); est < best.Est {
					best = Choice{
						ColOrder: append([]int(nil), order...),
						Plan:     p,
						Est:      est,
					}
				}
				return true
			})
			if !done {
				return false
			}
		}
		return true
	}

	if len(s.FixedOrder) > 0 {
		tryOrder(s.FixedOrder)
	} else if free := s.freePrefix(); free > 1 {
		permutations(free, func(prefix []int) bool {
			order := append(append([]int(nil), prefix...), identityOrder(m)[free:]...)
			return tryOrder(order)
		})
	} else {
		tryOrder(identityOrder(m))
	}
	obsChosenCostNS.Set(int64(best.Est))
	obsChosenRounds.Set(int64(len(best.Plan.Rounds)))
	return best, ctxErr
}

// forEachBankCombo enumerates bank-size combinations (b₁…b_k) ∈ B^k that
// could hold W bits, pruning combinations that Property 1 dominates:
// if even the largest assignable adjacent width pair cannot exceed bᵢ,
// rounds i and i+1 could always be stitched into round i, so the
// combination is dominated by one with fewer rounds. Returns false if f
// aborted the enumeration.
func forEachBankCombo(k, W int, f func(banks []int) bool) bool {
	banks := make([]int, k)
	var rec func(i, capacity int) bool
	rec = func(i, capacity int) bool {
		if i == k {
			if capacity < W {
				return true // cannot hold all bits
			}
			if dominatedCombo(banks, W) {
				return true
			}
			return f(banks)
		}
		for _, b := range plan.Banks {
			banks[i] = b
			// Remaining rounds can contribute at most 64 bits each.
			if capacity+b+(k-1-i)*64 < W {
				continue
			}
			if !rec(i+1, capacity+b) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}

// dominatedCombo applies the Property 1 pruning: a combination is
// dominated when for some adjacent pair the maximum assignable
// aᵢ + aᵢ₊₁ (bounded by the banks, and by W minus one bit for every
// other round) cannot exceed bᵢ.
func dominatedCombo(banks []int, W int) bool {
	k := len(banks)
	for i := 0; i+1 < k; i++ {
		maxPair := banks[i] + banks[i+1]
		if room := W - (k - 2); room < maxPair {
			maxPair = room
		}
		if maxPair <= banks[i] {
			return true
		}
	}
	return false
}

// greedyAssign implements lines 8–16 of Algorithm 1: for rounds
// 1 … k−1 pick the width a minimizing the estimated sorting cost of the
// *next* round; the remainder goes to the last round. Returns ok=false
// when no width assignment satisfies the bank capacities.
func greedyAssign(s *Search, stats costmodel.Stats, W int, banks []int) (plan.Plan, bool) {
	k := len(banks)
	if k == 1 {
		if W > banks[0] {
			return plan.Plan{}, false
		}
		return plan.Plan{Rounds: []plan.Round{{Width: W, Bank: banks[0]}}}, true
	}

	rounds := make([]plan.Round, 0, k)
	remaining := W
	bitsBefore := 0
	for i := 0; i < k-1; i++ {
		// Width bounds: at least 1 bit here and per later round; the
		// later banks must be able to absorb what remains.
		laterCap := 0
		for j := i + 1; j < k; j++ {
			laterCap += banks[j]
		}
		lo := remaining - laterCap
		if lo < 1 {
			lo = 1
		}
		hi := banks[i]
		if hi > remaining-(k-1-i) {
			hi = remaining - (k - 1 - i)
		}
		if lo > hi {
			return plan.Plan{}, false
		}
		bestA, bestCost := -1, 0.0
		for a := lo; a <= hi; a++ {
			c := s.Model.TSortAfter(stats, bitsBefore+a, banks[i+1])
			if bestA < 0 || c < bestCost {
				bestA, bestCost = a, c
			}
		}
		rounds = append(rounds, plan.Round{Width: bestA, Bank: banks[i]})
		remaining -= bestA
		bitsBefore += bestA
	}
	if remaining < 1 || remaining > banks[k-1] {
		return plan.Plan{}, false
	}
	rounds = append(rounds, plan.Round{Width: remaining, Bank: banks[k-1]})
	return plan.Plan{Rounds: rounds}, true
}
