package experiments

import (
	"math/rand"

	"repro/internal/plan"
	"repro/internal/planner"
)

// rrs is the recursive-random-search baseline the paper compares ROGA
// against (Table 1): a black-box optimizer that samples the plan space
// uniformly to find a promising point, then recursively samples a
// shrinking neighborhood around the incumbent, restarting when a
// neighborhood stops improving. It runs under the same ρ stopwatch as
// ROGA so the comparison is time-fair.
func rrs(s *planner.Search, seed int64) planner.Choice {
	sw := s.Stopwatch()
	rng := rand.New(rand.NewSource(seed))
	best := s.Baseline()
	m := len(s.Stats.Cols)
	free := s.FreePrefix()

	const (
		exploreSamples = 24 // global samples per restart
		exploitSamples = 12 // samples per neighborhood level
		maxLevels      = 6  // neighborhood shrink levels
	)

	estimate := estimator(s)
	W := s.Stats.TotalWidth()
	evaluate := func(order []int, p plan.Plan) (float64, bool) {
		if err := p.Validate(W); err != nil {
			return 0, false
		}
		return estimate(order, p), true
	}

	for !sw.Expired(best.Est) {
		// Exploration: uniform random plans.
		local := best
		improvedGlobal := false
		for i := 0; i < exploreSamples && !sw.Expired(best.Est); i++ {
			order := randomOrder(rng, m, free)
			p := randomPlan(rng, W)
			if est, ok := evaluate(order, p); ok && est < local.Est {
				local = planner.Choice{ColOrder: order, Plan: p, Est: est}
				improvedGlobal = true
			}
		}
		// Exploitation: recursive neighborhood shrink around the local
		// incumbent.
		radius := 8
		for level := 0; level < maxLevels && !sw.Expired(best.Est); level++ {
			improved := false
			for i := 0; i < exploitSamples && !sw.Expired(best.Est); i++ {
				order, p := neighbor(rng, local, radius, free)
				if est, ok := evaluate(order, p); ok && est < local.Est {
					local = planner.Choice{ColOrder: order, Plan: p, Est: est}
					improved = true
				}
			}
			if !improved {
				radius = max(1, radius/2)
			}
		}
		if local.Est < best.Est {
			best = local
		} else if !improvedGlobal {
			// A full restart found nothing: the stopwatch will expire
			// soon for realistic ρ; keep sampling until it does.
			if s.Rho < 0 {
				break // unbounded mode: stop after one fruitless restart
			}
		}
	}
	return best
}

// randomOrder shuffles the first `free` columns, leaving the rest fixed.
func randomOrder(rng *rand.Rand, m, free int) []int {
	order := planner.IdentityOrder(m)
	if free > 1 {
		rng.Shuffle(free, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// randomPlan draws a uniform random composition of W with parts ≤ 64 and
// minimal banks.
func randomPlan(rng *rand.Rand, W int) plan.Plan {
	var widths []int
	remaining := W
	for remaining > 0 {
		w := 1 + rng.Intn(min(remaining, 64))
		widths = append(widths, w)
		remaining -= w
	}
	return plan.FromWidths(widths)
}

// neighbor perturbs a choice: move up to `radius` bits across one round
// boundary, split a round, merge two adjacent rounds, or (for free-order
// clauses) swap two columns.
func neighbor(rng *rand.Rand, c planner.Choice, radius, free int) ([]int, plan.Plan) {
	order := append([]int(nil), c.ColOrder...)
	widths := append([]int(nil), c.Plan.Widths()...)
	switch op := rng.Intn(4); {
	case op == 0 && len(widths) > 1: // move bits across a boundary
		i := rng.Intn(len(widths) - 1)
		d := 1 + rng.Intn(radius)
		if rng.Intn(2) == 0 {
			d = -d
		}
		widths[i] += d
		widths[i+1] -= d
	case op == 1 && len(widths) > 1: // merge adjacent rounds
		i := rng.Intn(len(widths) - 1)
		widths[i] += widths[i+1]
		widths = append(widths[:i+1], widths[i+2:]...)
	case op == 2: // split a round
		i := rng.Intn(len(widths))
		if widths[i] >= 2 {
			cut := 1 + rng.Intn(widths[i]-1)
			rest := widths[i] - cut
			widths[i] = cut
			widths = append(widths[:i+1], append([]int{rest}, widths[i+1:]...)...)
		}
	default: // swap columns (within the permutable prefix only)
		if free > 1 {
			i, j := rng.Intn(free), rng.Intn(free)
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, w := range widths {
		if w < 1 || w > 64 {
			return order, plan.Plan{} // invalid; evaluate() rejects it
		}
	}
	return order, plan.FromWidths(widths)
}
