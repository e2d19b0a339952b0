package planner

import (
	"context"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Plan-search observability. Writes are no-ops until obs.Enable().
var (
	obsSearches      = obs.NewCounter("planner.searches")
	obsOrders        = obs.NewCounter("planner.orders_considered")
	obsRoundCounts   = obs.NewCounter("planner.round_counts_considered")
	obsCandidates    = obs.NewCounter("planner.candidates_enumerated")
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
// permutation, each over one costmodel.Profile. The ρ stopwatch bounds
// the search time relative to the best plan found so far, and the
// context is polled at the same granularity (once per candidate plan),
// so a cancelled search returns ctx.Err() promptly. The returned Choice
// is the best plan found so far — still valid if the caller prefers
// degraded planning over failing the query.
//
// MaxPlans counts candidates enumerated; a candidate whose running cost
// reaches the incumbent's is abandoned mid-sum (it could not have won),
// so planner.plans_costed — completed evaluations — is the smaller
// number. Neither changes which plan wins.
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
		if best, err = rogaSearch(ctx, &unlimited); err == nil {
			pinned := *s
			pinned.FixedOrder = best.ColOrder
			best, err = rogaSearch(ctx, &pinned)
		}
	} else {
		best, err = rogaSearch(ctx, s)
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

// rogaSearch is one ROGA search over the orders s allows, the limit
// included.
func rogaSearch(ctx context.Context, s *Search) (Choice, error) {
	sw := s.Stopwatch()
	m := len(s.Stats.Cols)
	var best Choice
	seeded := false
	enumerated := 0
	var ctxErr error
	var w comboWalk

	tryOrder := func(order []int) bool {
		obsOrders.Inc()
		st := s.Stats.Permute(order)
		pf := s.Model.Profile(st)
		if !seeded {
			// The first order tried is the baseline's (identity, or the
			// pin), so P₀ seeds the incumbent from the same profile.
			best, seeded = baselineOn(pf, st, order), true
		}
		// visit costs one bank combination's greedy plan.
		visit := func() bool {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
			if sw.Expired(best.Est) {
				obsSearchExpired.Inc()
				return false
			}
			if s.MaxPlans > 0 && enumerated >= s.MaxPlans {
				obsSearchCapped.Inc()
				return false
			}
			if !w.assign() {
				return true
			}
			enumerated++
			obsCandidates.Inc()
			est, complete := pf.TMCS(plan.Plan{Rounds: w.rounds}, best.Est)
			if !complete {
				return true
			}
			obsPlansCosted.Inc()
			if est < best.Est {
				best = Choice{
					ColOrder: append([]int(nil), order...),
					Plan:     plan.Plan{Rounds: append([]plan.Round(nil), w.rounds...)},
					Est:      est,
				}
			}
			return true
		}
		W := st.TotalWidth()
		maxK := plan.MaxRounds(W)
		for k := 1; k <= maxK; k++ {
			obsRoundCounts.Inc()
			if !w.forEachCombo(pf, k, W, visit) {
				return false
			}
		}
		return true
	}

	if len(s.FixedOrder) > 0 {
		tryOrder(s.FixedOrder)
	} else if free := s.FreePrefix(); free > 1 {
		Permutations(free, func(prefix []int) bool {
			order := append(append([]int(nil), prefix...), IdentityOrder(m)[free:]...)
			return tryOrder(order)
		})
	} else {
		tryOrder(IdentityOrder(m))
	}
	return best, ctxErr
}

// comboWalk enumerates the bank-size combinations (b₁…b_k) ∈ B^k of one
// column order and round count, and implements lines 8–16 of
// Algorithm 1 over them: for rounds 1 … k−1 pick the width a minimizing
// the estimated sorting cost of the *next* round; the remainder goes to
// the last round. The scratch is reused across calls.
type comboWalk struct {
	pf     *costmodel.Profile
	k, W   int
	rounds []plan.Round // banks of the current combination; widths once assigned
	visit  func() bool
}

// forEachCombo calls visit for every combination that could hold W bits
// and that Property 1 does not dominate; assign then completes the plan
// in w.rounds. Returns false if visit aborted the enumeration.
func (w *comboWalk) forEachCombo(pf *costmodel.Profile, k, W int, visit func() bool) bool {
	w.pf, w.k, w.W, w.visit = pf, k, W, visit
	if cap(w.rounds) < k {
		w.rounds = make([]plan.Round, k)
	}
	w.rounds = w.rounds[:k]
	return w.rec(0, 0)
}

// rec chooses bank i; banks [0, i) hold capacity bits.
func (w *comboWalk) rec(i, capacity int) bool {
	if i == w.k {
		if capacity < w.W {
			return true // cannot hold all bits
		}
		return w.visit()
	}
	for _, b := range plan.Banks {
		w.rounds[i].Bank = b
		// Remaining rounds can contribute at most 64 bits each.
		if capacity+b+(w.k-1-i)*plan.MaxWidth < w.W {
			continue
		}
		if i > 0 && w.dominated(i-1) {
			continue
		}
		if !w.rec(i+1, capacity+b) {
			return false
		}
	}
	return true
}

// dominated applies the Property 1 pruning to rounds i and i+1: when
// the maximum assignable aᵢ + aᵢ₊₁ (bounded by the banks, and by W minus
// one bit for every other round) cannot exceed bᵢ, the two rounds could
// always be stitched into round i, so a combination with fewer rounds
// covers every combination that contains the pair.
func (w *comboWalk) dominated(i int) bool {
	maxPair := w.rounds[i].Bank + w.rounds[i+1].Bank
	if room := w.W - (w.k - 2); room < maxPair {
		maxPair = room
	}
	return maxPair <= w.rounds[i].Bank
}

// assign gives the current combination its greedy widths. It returns
// false when no width assignment satisfies the bank capacities.
func (w *comboWalk) assign() bool {
	laterCap := 0
	for _, r := range w.rounds[1:] {
		laterCap += r.Bank
	}
	bits := 0
	for i := 0; i < w.k-1; i++ {
		// At least one bit, and whatever the later banks cannot absorb; at
		// most the bank, leaving a bit for every later round.
		lo := max(1, w.W-bits-laterCap)
		hi := min(w.rounds[i].Bank, w.W-bits-(w.k-1-i))
		if lo > hi {
			return false
		}
		after := w.pf.ArgminSortAfter(bits+lo, bits+hi, w.rounds[i+1].Bank)
		w.rounds[i].Width = after - bits
		bits = after
		laterCap -= w.rounds[i+1].Bank
	}
	last := &w.rounds[w.k-1]
	last.Width = w.W - bits
	return last.Width >= 1 && last.Width <= last.Bank
}
