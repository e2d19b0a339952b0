package experiments

import (
	"math"
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/planner"
)

// Enumeration of the feasible plan population, used as the "perfect cost
// model" oracle A_i (Section 6.1): the experiments execute every plan in
// this set and rank the searchers' picks against the measured times.
//
// A feasible plan is a composition of W into at most MaxRounds(W) parts
// of ≤ 64 bits, each sorted with its minimal bank (a wider-than-minimal
// bank is dominated because every per-bank cost constant grows with
// width, so excluding wider banks loses nothing). For free-order clauses
// the population is additionally crossed with the column permutations.
// When the population exceeds the budget we draw a uniform sample instead
// — rank is then relative to the sampled population, which preserves the
// ROGA-vs-RRS comparison (both picks are always included by the caller).

// candidate is a plan in the enumerated population.
type candidate struct {
	ColOrder []int
	Plan     plan.Plan
}

// enumerateOptions bounds the enumeration.
type enumerateOptions struct {
	Budget int   // maximum population size; <=0 means 4096
	Seed   int64 // sampling seed when the population exceeds the budget
}

// enumerate returns the feasible plan population for the search, exactly
// when its size fits the budget and as a uniform random sample otherwise.
// The second return reports whether the enumeration was exhaustive.
func enumerate(s *planner.Search, opts enumerateOptions) ([]candidate, bool) {
	if opts.Budget <= 0 {
		opts.Budget = 4096
	}
	m := len(s.Stats.Cols)
	W := s.Stats.TotalWidth()
	maxK := plan.MaxRounds(W)

	free := s.FreePrefix()
	nOrders := 1
	for i := 2; i <= free; i++ {
		nOrders *= i
	}
	total := countCompositions(W, maxK) * float64(nOrders)

	if total <= float64(opts.Budget) {
		var out []candidate
		collect := func(order []int) bool {
			forEachComposition(W, maxK, func(widths []int) bool {
				out = append(out, candidate{
					ColOrder: append([]int(nil), order...),
					Plan:     plan.FromWidths(widths),
				})
				return true
			})
			return true
		}
		if free > 1 {
			planner.Permutations(free, func(prefix []int) bool {
				order := append(append([]int(nil), prefix...), planner.IdentityOrder(m)[free:]...)
				return collect(order)
			})
		} else {
			collect(planner.IdentityOrder(m))
		}
		return out, true
	}

	// Sample uniformly: random order (if free), random composition with
	// ≤ maxK parts by rejection.
	rng := rand.New(rand.NewSource(opts.Seed))
	seen := make(map[string]bool, opts.Budget)
	var out []candidate
	for len(out) < opts.Budget {
		order := randomOrder(rng, m, free)
		p := randomPlan(rng, W)
		if len(p.Rounds) > maxK {
			continue
		}
		key := candKey(order, p)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, candidate{ColOrder: order, Plan: p})
	}
	return out, false
}

// estimator returns the search model's estimate of any plan of the
// search in any column order, building one costmodel.Profile per order
// asked about. Like a Profile, the function is not safe for concurrent
// use.
func estimator(s *planner.Search) func(order []int, p plan.Plan) float64 {
	profiles := map[string]*costmodel.Profile{}
	return func(order []int, p plan.Plan) float64 {
		key := candKey(order, plan.Plan{})
		pf := profiles[key]
		if pf == nil {
			pf = s.Model.Profile(s.Stats.Permute(order))
			profiles[key] = pf
		}
		est, _ := pf.TMCS(p, math.Inf(1))
		return est
	}
}

func candKey(order []int, p plan.Plan) string {
	b := make([]byte, 0, len(order)+len(p.Rounds)+1)
	for _, o := range order {
		b = append(b, byte(o))
	}
	b = append(b, 0xFF)
	for _, r := range p.Rounds {
		b = append(b, byte(r.Width))
	}
	return string(b)
}

// countCompositions returns the number of compositions of W into at most
// maxK parts, each part ≤ 64 — computed exactly with a small DP, capped
// at 2^53 to stay in float precision.
func countCompositions(W, maxK int) float64 {
	// dp[w] = compositions of w into exactly j parts (rolled over j).
	dp := make([]float64, W+1)
	dp[0] = 1
	total := 0.0
	const cap53 = float64(1 << 53)
	for j := 1; j <= maxK; j++ {
		next := make([]float64, W+1)
		for w := 1; w <= W; w++ {
			for part := 1; part <= 64 && part <= w; part++ {
				next[w] += dp[w-part]
				if next[w] > cap53 {
					next[w] = cap53
				}
			}
		}
		dp = next
		total += dp[W]
		if total > cap53 {
			return cap53
		}
	}
	return total
}

// forEachComposition enumerates compositions of W into at most maxK
// parts of ≤ 64 bits each.
func forEachComposition(W, maxK int, f func(widths []int) bool) bool {
	widths := make([]int, 0, maxK)
	var rec func(remaining int) bool
	rec = func(remaining int) bool {
		if remaining == 0 {
			return f(widths)
		}
		if len(widths) == maxK {
			return true
		}
		// The leftover must still be packable into the remaining rounds.
		roundsLeft := maxK - len(widths) - 1
		for part := 1; part <= min(remaining, 64); part++ {
			if remaining-part > roundsLeft*64 {
				continue
			}
			widths = append(widths, part)
			if !rec(remaining - part) {
				widths = widths[:len(widths)-1]
				return false
			}
			widths = widths[:len(widths)-1]
		}
		return true
	}
	return rec(W)
}
