// Package planner searches the code-massage plan space (Section 5 of the
// paper) with ROGA, the paper's round-based greedy algorithm
// (Algorithm 1), over a cost model. The baselines the paper compares
// ROGA against — RRS, the recursive random search of Table 1, and the
// exhaustive "perfect cost model" oracle of Figure 7 — are measurement
// apparatus and live with the experiments (internal/experiments), which
// build them on Search, FreePrefix, IdentityOrder, Permutations and the
// Stopwatch.
//
// The plan space for an ORDER BY over columns of total width W is the set
// of integer compositions of W (2^(W−1) plans); GROUP BY and PARTITION BY
// additionally permute the column order (m! larger).
package planner

import (
	"math"
	"time"

	"repro/internal/costmodel"
	"repro/internal/plan"
)

// ClauseKind distinguishes sorts with a fixed column order (ORDER BY)
// from those free to permute columns (GROUP BY, PARTITION BY).
type ClauseKind int

const (
	OrderBy ClauseKind = iota
	GroupBy
	PartitionBy
)

// FreeOrder reports whether the clause may reorder its columns.
func (k ClauseKind) FreeOrder() bool { return k != OrderBy }

// Choice is a plan selected by a search strategy: the column order it
// assumes and the round partition, with the model's cost estimate.
type Choice struct {
	// ColOrder maps round-partition positions to the original column
	// indices: the concatenation sorted is C[ColOrder[0]]‖C[ColOrder[1]]‖….
	ColOrder []int
	Plan     plan.Plan
	Est      float64 // estimated T_mcs in nanoseconds
}

// IdentityOrder returns [0, 1, …, m).
func IdentityOrder(m int) []int {
	p := make([]int, m)
	for i := range p {
		p[i] = i
	}
	return p
}

// DefaultRho is the paper's recommended time threshold ρ = 0.1%.
const DefaultRho = 0.001

// Search bundles the inputs every strategy consumes.
type Search struct {
	Model *costmodel.Model
	Stats costmodel.Stats // column stats in clause order
	Kind  ClauseKind
	// Rho is the time threshold ρ: the search stops once its elapsed
	// time exceeds Rho × the estimated cost of the best plan so far.
	// Zero means DefaultRho; negative means no threshold (N/S).
	Rho float64
	// MaxPlans caps how many candidate plans the search enumerates
	// (costed in full or abandoned against the incumbent alike) before
	// stopping with the best found so far; 0 means no cap. Unlike the
	// ρ stopwatch, the cap is counted, not timed: two searches over the
	// same inputs visit the same candidates in the same enumeration
	// order and choose the same plan on every machine. Long-running
	// services (mcsd) rely on this for plan-cache coherence — a
	// memoized choice must equal the choice a fresh search would make —
	// while still bounding the m!-order searches of wide GROUP BY
	// clauses (disable ρ with a negative value, set MaxPlans instead).
	MaxPlans int
	// FixedTail pins the last FixedTail columns in place when the
	// clause kind would otherwise permute them: a window function's
	// ORDER BY column must remain the final sort key of its
	// PARTITION BY sort.
	FixedTail int
	// FixedOrder, when non-empty, pins the entire column permutation:
	// the search costs round partitions for exactly this order and
	// never enumerates alternatives. The sharded coordinator uses it to
	// replay the column order of its own full-table search on every
	// shard — per-shard statistics differ, and a GROUP BY that chose a
	// different permutation on one shard would emit group keys in a
	// different column order than its peers. Must be a permutation of
	// [0, len(Stats.Cols)); it overrides FixedTail and the free-prefix
	// enumeration.
	FixedOrder []int
}

// FreePrefix returns how many leading columns the search may permute.
func (s *Search) FreePrefix() int {
	m := len(s.Stats.Cols)
	if !s.Kind.FreeOrder() {
		return 0
	}
	free := m - s.FixedTail
	if free < 0 {
		return 0
	}
	return free
}

func (s *Search) rho() float64 {
	if s.Rho == 0 {
		return DefaultRho
	}
	return s.Rho
}

// Stopwatch implements the ρ-threshold early stop of Algorithm 1.
type Stopwatch struct {
	start time.Time
	rho   float64
}

// Stopwatch starts the search's ρ stopwatch.
func (s *Search) Stopwatch() *Stopwatch {
	return &Stopwatch{start: time.Now(), rho: s.rho()}
}

// Expired reports whether the elapsed time exceeds ρ × bestEstNS.
// A negative ρ disables the threshold.
func (sw *Stopwatch) Expired(bestEstNS float64) bool {
	if sw.rho < 0 {
		return false
	}
	return float64(time.Since(sw.start).Nanoseconds()) > sw.rho*bestEstNS
}

// Baseline returns the column-at-a-time plan P₀ in clause order — or,
// when FixedOrder pins the permutation, in that order: the baseline
// seeds the search's running best, so a baseline in any other order
// could win the search and leak an unpinned ColOrder to the caller.
func (s *Search) Baseline() Choice {
	order := s.FixedOrder
	if len(order) == 0 {
		order = IdentityOrder(len(s.Stats.Cols))
	}
	st := s.Stats.Permute(order)
	return baselineOn(s.Model.Profile(st), st, order)
}

// baselineOn is P₀ of the column order pf profiles, costed in full.
func baselineOn(pf *costmodel.Profile, st costmodel.Stats, order []int) Choice {
	widths := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		widths[i] = c.Width
	}
	p0 := plan.ColumnAtATime(widths)
	est, _ := pf.TMCS(p0, math.Inf(1))
	return Choice{ColOrder: append([]int(nil), order...), Plan: p0, Est: est}
}

// Permutations yields every permutation of 0..m-1 in lexicographic
// succession starting from identity, calling f until it returns false.
func Permutations(m int, f func(perm []int) bool) {
	perm := IdentityOrder(m)
	for {
		if !f(perm) {
			return
		}
		// Next lexicographic permutation.
		i := m - 2
		for i >= 0 && perm[i] >= perm[i+1] {
			i--
		}
		if i < 0 {
			return
		}
		j := m - 1
		for perm[j] <= perm[i] {
			j--
		}
		perm[i], perm[j] = perm[j], perm[i]
		for l, r := i+1, m-1; l < r; l, r = l+1, r-1 {
			perm[l], perm[r] = perm[r], perm[l]
		}
	}
}
