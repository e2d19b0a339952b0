// Memory-budget degradation policy for engine.RunContext. The budget
// knob (Options.MaxBytes) bounds the estimated transient footprint of a
// query's sort pipeline; when the requested worker count would exceed
// it the engine halves workers until the estimate fits, and refuses
// with pipeerr.ErrBudgetExceeded when even sequential execution does
// not. The estimate is deliberately coarse — a per-row byte model of
// the big allocations, documented in docs/robustness.md — because its
// only job is to make degradation monotone and the refusal threshold
// predictable.
package engine

import (
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

var (
	obsBudgetDegraded   = obs.NewCounter("engine.budget_degraded")
	obsBudgetRefused    = obs.NewCounter("engine.budget_refused")
	obsEffectiveWorkers = obs.NewGauge("engine.effective_workers")
)

// EstimatePipelineBytes models the peak transient allocation of sorting
// `rows` selected rows over nCols sort columns with an nRounds plan at
// the given worker count:
//
//	materialized inputs   8·nCols·rows
//	massaged round keys   8·nRounds·rows
//	lookup scratch        8·rows
//	permutation           4·rows
//	group boundaries      4·rows (worst case: all singletons)
//	radix sort scratch   24·rows (two (key, oid) pairs, 12 B/row each)
//
// Parallel execution adds a fixed per-worker overhead: the parallel
// radix sort ping-pongs through the same two scratch pairs as the
// sequential one. Aggregation's 8·rows gathered column comes after the
// sort, when its ≥ 40·rows of keys and scratch are dead: under the
// peak. It is the one footprint model: the
// engine's own two-stage degradation applies it, the mcsd admission
// controller charges each admitted query against the aggregate budget
// with it — so the two layers never disagree about whether a query
// fits — and mcs.Sort calls it with nCols = 0 (its input codes are
// caller-owned and exist either way).
func EstimatePipelineBytes(rows, nCols, nRounds, workers int) int64 {
	r := int64(rows)
	perRow := int64(8*(nCols+nRounds) + 8 + 4 + 4 + 24)
	total := r * perRow
	if workers > 1 {
		total += int64(workers) * 64 << 10
	}
	return total
}

// budgetWorkers applies the degradation policy for one stage of the
// budget check and keeps the obs counters/gauge current. It returns the
// effective worker count, or ErrBudgetExceeded when the query cannot
// fit the budget at all.
func budgetWorkers(requested int, maxBytes int64, rows, nCols, nRounds int) (int, error) {
	w, err := pipeerr.DegradeWorkers(requested, maxBytes, func(w int) int64 {
		return EstimatePipelineBytes(rows, nCols, nRounds, w)
	})
	if err != nil {
		obsBudgetRefused.Inc()
		return 0, err
	}
	if maxBytes > 0 && requested > 1 && w < requested {
		obsBudgetDegraded.Inc()
	}
	obsEffectiveWorkers.Set(int64(w))
	return w, nil
}
