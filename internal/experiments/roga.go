package experiments

import (
	"context"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/planner"
)

// roga is the paper's round-based greedy plan search (Algorithm 1), the
// searcher fig7, fig12 and tab1 rank; production takes each column
// order's exact optimum instead (planner.ROGAContext). roga considers
// plans of k = 1 … ⌊2(W−1)/b_min⌋+1 rounds (plan.MaxRounds); for each k
// it walks the bank combinations Property 1 keeps and gives each round
// the width that minimises the next round's sorting cost, per column
// order (Search.Orders). P₀ seeds the incumbent, and a candidate's
// costing stops once its running sum reaches the incumbent's. The
// context, the ρ stopwatch and MaxPlans (candidates enumerated) are
// read before every candidate. A truncated free-order search runs in
// one piece, not split as production's: the figures search no LIMIT.
func roga(ctx context.Context, s *planner.Search) (planner.Choice, error) {
	sw := s.Stopwatch()
	best := s.Baseline()
	enumerated := 0
	var err error
	s.Orders(func(order []int) bool {
		W := s.Stats.TotalWidth()
		w := &comboWalk{pf: s.Model.Profile(s.Stats.Permute(order)), W: W, after: make([]float64, len(plan.Banks)*(W+1))}
		visit := func() bool {
			if err = ctx.Err(); err != nil {
				return false
			}
			if sw.Expired(best.Est) || s.MaxPlans > 0 && enumerated >= s.MaxPlans {
				return false
			}
			if !w.assign() {
				return true
			}
			enumerated++
			if est, ok := w.costBelow(best.Est); ok {
				best = planner.Choice{ColOrder: slices.Clone(order), Plan: plan.Plan{Rounds: slices.Clone(w.rounds)}, Est: est}
			}
			return true
		}
		for k := 1; k <= plan.MaxRounds(W); k++ {
			if !w.forEachCombo(k, visit) {
				return false
			}
		}
		return true
	})
	return best, err
}

// comboWalk enumerates the bank-size combinations (b₁…b_k) ∈ B^k of one
// column order and round count, and implements lines 8–16 of
// Algorithm 1 over them: for rounds 1 … k−1 pick the width a minimizing
// the estimated sorting cost of the *next* round; the remainder goes to
// the last round.
type comboWalk struct {
	pf     *costmodel.Profile
	k, W   int
	after  []float64    // after[i·(W+1)+bits] memoises sortAfter(bits, plan.Banks[i]); 0 = not yet
	rounds []plan.Round // banks of the current combination; widths once assigned
	visit  func() bool
}

// sortAfter is the greedy's criterion: the sort cost of a round in a
// bank-bit bank once bits bits are sorted. The round's width is not
// fixed yet, so the widest key the bank could hold stands in for it.
func (w *comboWalk) sortAfter(bits, bank int) float64 {
	memo := &w.after[slices.Index(plan.Banks, bank)*(w.W+1)+bits]
	if *memo == 0 { // a round that sorts nothing is priced again each time
		*memo = w.pf.Round(bits, min(w.W-bits, bank), bank).Sort
	}
	return *memo
}

// costBelow is TMCS of the assigned plan, summed in TMCS's order and
// abandoned once the running sum reaches incumbent; ok reports a total
// below it.
func (w *comboWalk) costBelow(incumbent float64) (est float64, ok bool) {
	t, lo := w.pf.Base(), 0
	for _, r := range w.rounds {
		if t >= incumbent {
			return t, false
		}
		t += w.pf.Round(lo, r.Width, r.Bank).Total()
		lo += r.Width
	}
	return t, t < incumbent
}

// forEachCombo calls visit for every combination of k banks that could
// hold W bits and that Property 1 does not dominate; assign then
// completes the plan in w.rounds. Returns false if visit aborted the
// enumeration.
func (w *comboWalk) forEachCombo(k int, visit func() bool) bool {
	w.k, w.visit, w.rounds = k, visit, make([]plan.Round, k)
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
		lo := bits + max(1, w.W-bits-laterCap)
		hi := bits + min(w.rounds[i].Bank, w.W-bits-(w.k-1-i))
		if lo > hi {
			return false
		}
		// The first width minimising the next round's sorting cost.
		after, cost := lo, w.sortAfter(lo, w.rounds[i+1].Bank)
		for b := lo + 1; b <= hi; b++ {
			if c := w.sortAfter(b, w.rounds[i+1].Bank); c < cost {
				after, cost = b, c
			}
		}
		w.rounds[i].Width = after - bits
		bits = after
		laterCap -= w.rounds[i+1].Bank
	}
	last := &w.rounds[w.k-1]
	last.Width = w.W - bits
	return last.Width >= 1 && last.Width <= last.Bank
}
