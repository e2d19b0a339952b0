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
// `rows` selected rows with an nRounds plan at the given worker count,
// and of consuming the sorted rows:
//
//	massaged round keys   8·nRounds·rows
//	lookup scratch        8·rows
//	permutation           4·rows
//	group boundaries      4·rows (worst case: all singletons)
//	radix sort scratch   24·rows (two (key, oid) pairs, 12 B/row each)
//
// Nothing is charged for the sort columns, whose bits the massage ORs
// into the round keys straight from their ByteSlices' planes, with no
// code buffer between, nor for the
// selection: an unfiltered query lists no rows, and a filter's row list
// (4 B a selected row) is left out. The radix term
// keeps the widest bank's two ping-pong pairs; a bank of at most 32
// bits needs one or two 8-byte words a row. A carried aggregate's
// codes (mcsort.Options.Payload, 4·rows) take no term of their own:
// one round carries them in the permutation, and a longer plan reads
// them just before its last lookup, which consumes them, when no sort
// scratch is live — the radix term covers them at every bank. Parallel execution adds a
// fixed per-worker overhead. The round keys, permutation and groups
// stay live while the consumer runs; what it adds, at most 8·rows (an
// aggregate column wider than 32 bits read in selection order, or a
// page's ranks and row ids), comes when the lookup and radix scratch
// are dead. It is the one footprint model: the engine's two-stage
// degradation, mcsd's admission controller and mcs.Sort all apply it,
// so no two layers disagree about whether a query fits.
func EstimatePipelineBytes(rows, nRounds, workers int) int64 {
	r := int64(rows)
	perRow := int64(8*nRounds + 8 + 4 + 4 + 24)
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
func budgetWorkers(requested int, maxBytes int64, rows, nRounds int) (int, error) {
	w, err := pipeerr.DegradeWorkers(requested, maxBytes, func(w int) int64 {
		return EstimatePipelineBytes(rows, nRounds, w)
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
