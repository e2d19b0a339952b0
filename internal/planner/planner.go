// Package planner searches the code-massage plan space (Section 5 of the
// paper) over a cost model: per column order, the exact optimum the
// model admits (ROGAContext). The paper's searches — ROGA, its
// round-based greedy algorithm (Algorithm 1), RRS, the recursive random
// search of Table 1, and the exhaustive "perfect cost model" oracle of
// Figure 7 — are measurement apparatus and live with the experiments
// (internal/experiments), which build them on Search, Orders, Baseline
// and the Stopwatch.
//
// The plan space for an ORDER BY over columns of total width W is the set
// of integer compositions of W (2^(W−1) plans), each round in any bank
// that holds it; GROUP BY and PARTITION BY additionally permute the
// column order (m! larger).
package planner

import (
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
	// time exceeds Rho × the estimated cost of the best plan so far,
	// read between column orders, never before the first. Zero means
	// DefaultRho; negative means no threshold (N/S).
	Rho float64
	// MaxPlans caps how many round costs the search evaluates before
	// stopping with the best plan found so far; 0 means no cap. The
	// search costs whole column orders (ROGAContext), so the cap ends
	// it between two orders. Unlike the ρ stopwatch, the cap is
	// counted, not timed: two searches over the same inputs cost the
	// same orders and choose the same plan on every machine.
	// Long-running services (mcsd) rely on this for plan-cache
	// coherence — a memoized choice must equal the choice a fresh
	// search would make — while still bounding the m!-order searches of
	// wide GROUP BY clauses (disable ρ with a negative value, set
	// MaxPlans instead).
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
	if !s.Kind.FreeOrder() {
		return 0
	}
	return max(len(s.Stats.Cols)-s.FixedTail, 0)
}

// Stopwatch implements the ρ-threshold early stop of Algorithm 1.
type Stopwatch struct {
	start time.Time
	rho   float64
}

// Stopwatch starts the search's ρ stopwatch.
func (s *Search) Stopwatch() *Stopwatch {
	rho := s.Rho
	if rho == 0 {
		rho = DefaultRho
	}
	return &Stopwatch{start: time.Now(), rho: rho}
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
// when FixedOrder pins the permutation, in that order: the paper's
// searches seed their running best with it, so a baseline in any other
// order could win a pinned search and leak an unpinned ColOrder.
func (s *Search) Baseline() Choice {
	order := s.FixedOrder
	if len(order) == 0 {
		order = IdentityOrder(len(s.Stats.Cols))
	}
	st := s.Stats.Permute(order)
	widths := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		widths[i] = c.Width
	}
	p0 := plan.ColumnAtATime(widths)
	return Choice{ColOrder: append([]int(nil), order...), Plan: p0, Est: s.Model.Profile(st).TMCS(p0)}
}

// Orders calls f with every column order the search considers, in
// search order, until f returns false: the pin (FixedOrder), else every
// permutation of the free prefix in lexicographic succession from
// identity, the rest in place. f must not keep or change order.
func (s *Search) Orders(f func(order []int) bool) {
	if len(s.FixedOrder) > 0 {
		f(s.FixedOrder)
		return
	}
	order := IdentityOrder(len(s.Stats.Cols))
	Permutations(s.FreePrefix(), func(prefix []int) bool {
		copy(order, prefix)
		return f(order)
	})
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
