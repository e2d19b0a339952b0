// Package engine executes the evaluation queries over WideTables with
// the paper's physical operators: ByteSlice-Scan (filters),
// ByteSlice-Lookup (materialization), Code-Massage + radix sort
// (multi-column sorting, via internal/mcsort), grouped aggregation, and
// window RANK. Every operator's wall time is recorded so experiments can
// reproduce the paper's per-query time breakdowns (Figures 1 and 9).
//
// RunContext is the entry point: the context is polled at
// operator, round, and chunk boundaries, worker panics are contained
// into *pipeerr.PipelineError, and Options.MaxBytes bounds the
// estimated memory footprint by degrading workers before refusing with
// pipeerr.ErrBudgetExceeded (see budget.go).
package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/byteslice"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/table"
)

// Cost-model accuracy observability: every massaged execution adds the
// planner's predicted T_mcs and the measured one to aggregate counters,
// so predicted-vs-measured divergence is a first-class metric
// (`mcsbench -metrics`). Writes are no-ops until obs.Enable().
var (
	obsQueries        = obs.NewCounter("engine.queries")
	obsPredictedNS    = obs.NewCounter("engine.predicted_mcs_ns")
	obsMeasuredNS     = obs.NewCounter("engine.measured_mcs_ns")
	obsPredOverMeasMi = obs.NewGauge("engine.pred_over_meas_x1000")
)

// SortCol names one column of the multi-column sort clause.
type SortCol struct {
	Name string
	Desc bool
}

// Filter is a ByteSlice-scanned predicate, either `col op const` or
// `lo <= col <= hi` (Between).
type Filter struct {
	Col     string
	Op      byteslice.Op
	Const   uint64
	Between bool
	Lo, Hi  uint64
}

// AggKind selects the aggregate of a GROUP BY query.
type AggKind int

const (
	Count AggKind = iota
	Sum
	Avg
)

// Agg is the aggregate computed per group.
type Agg struct {
	Kind AggKind
	Col  string // ignored for Count
}

// Window describes RANK() OVER (PARTITION BY SortCols ORDER BY OrderCol).
type Window struct {
	OrderCol string
	Desc     bool
}

// Query is a declarative description of an evaluation query.
type Query struct {
	ID       string
	Kind     planner.ClauseKind
	SortCols []SortCol // GROUP BY / ORDER BY / PARTITION BY columns
	Filters  []Filter
	Agg      *Agg    // grouped aggregate (GROUP BY queries)
	Window   *Window // window rank (PARTITION BY queries)
	// OrderByAgg adds the trailing ORDER BY <aggregate> DESC that many
	// of the queries carry — a single-column sort over the group table.
	OrderByAgg bool
}

// Timing is the per-operator wall-time breakdown of one execution.
type Timing struct {
	PlanSearch  time.Duration
	FilterScan  time.Duration
	Materialize time.Duration
	MCS         mcsort.Timings
	Aggregate   time.Duration
	PostSort    time.Duration // single-column sorting after aggregation
}

// Total sums all phases.
func (t Timing) Total() time.Duration {
	return t.PlanSearch + t.FilterScan + t.Materialize + t.MCS.Total() +
		t.Aggregate + t.PostSort
}

// NonMCS is everything but the multi-column sort: the paper's
// "scan+lookup+aggregation+single-column sorting" category.
func (t Timing) NonMCS() time.Duration { return t.Total() - t.MCS.Total() }

// Result of a query execution.
type Result struct {
	// GroupKeys[g][c] is the code of sort column c in output group g.
	GroupKeys [][]uint64
	// Aggregates[g] is the aggregate of group g (group queries). For
	// Avg it is the scaled integer mean.
	Aggregates []uint64
	// Ranks[i] pairs with RowOids[i] for window queries.
	Ranks   []uint32
	RowOids []uint32
	Timing  Timing
	Plan    plan.Plan
	// ColOrder is the column permutation the planner chose.
	ColOrder []int
	// Rows is the row count after filtering.
	Rows int
	// Workers is the effective worker count after any budget
	// degradation (0 when the requested count was never reduced and
	// Options.Workers was <= 1).
	Workers int
	// PredictedMCS is the cost model's estimated T_mcs for the chosen
	// plan in nanoseconds (0 when no estimate was produced, e.g. with
	// massaging off). Compare against Timing.MCS.Total() for the
	// predicted-vs-measured accuracy of the model.
	PredictedMCS float64
}

// CostRatio returns predicted/measured T_mcs, or 0 when either side is
// missing.
func (r *Result) CostRatio() float64 {
	meas := float64(r.Timing.MCS.Total())
	if r.PredictedMCS <= 0 || meas <= 0 {
		return 0
	}
	return r.PredictedMCS / meas
}

// Options tunes an execution.
type Options struct {
	// Massaging enables plan search; disabled runs column-at-a-time.
	Massaging bool
	Model     *costmodel.Model
	Rho       float64
	// MaxPlans caps the number of candidate plans the search costs
	// (planner.Search.MaxPlans): a counted, machine-independent budget.
	// Pair it with a negative Rho for deterministic plan choice under
	// bounded search work; 0 means no cap.
	MaxPlans int
	// Workers parallelizes the whole pipeline when > 1: materialization
	// gathers, massaging, every sorting round, and the aggregation
	// scan. Results are byte-identical for any value.
	Workers int
	// MaxBytes bounds the estimated transient memory footprint of the
	// sort pipeline. When the estimate at the requested worker count
	// exceeds it, the engine halves workers until it fits; when even
	// sequential execution does not fit, the query is refused with
	// pipeerr.ErrBudgetExceeded. <= 0 means unlimited.
	MaxBytes int64
	// SortParams overrides the sorter's parallel threshold (tests force
	// the parallel paths on small inputs) and carries the sort-kernel
	// hook (mergesort.Params.Sort: the figure experiments plug in the
	// paper's kernel); output is byte-identical either way.
	SortParams *mergesort.Params
	// PlanOverride skips the search and uses the given choice.
	PlanOverride *planner.Choice
	// FixedColOrder pins the plan search's column permutation
	// (planner.Search.FixedOrder): the search still decomposes rounds
	// freely but may only consider exactly this order. The sharded
	// coordinator sets it so every shard sorts in the column order the
	// coordinator's own full-table search chose — per-shard statistics
	// differ, and GROUP BY output bytes depend on the order. Must be a
	// permutation of [0, len(SortCols)) with the window ORDER BY column
	// (when present) last; ORDER BY queries accept only the identity.
	// Ignored when PlanOverride is set (a cached choice carries its own
	// order).
	FixedColOrder []int
	// Limit caps the output entries (docs/topk.md): ranked rows for
	// window queries, groups otherwise. nil is unlimited; 0 produces an
	// empty result without sorting. When set, the sort pipeline runs the
	// truncated path — bounded-heap round 0, survivors-only later rounds
	// — cut at rank Offset+Limit, and the result is byte-identical to
	// the unlimited result sliced to [Offset, Offset+Limit) at any
	// worker count, cached or uncached.
	Limit *int
	// Offset drops the first Offset output entries (applied after the
	// sort, before Limit counts). Negative values are rejected. An
	// Offset without a Limit slices the full result.
	Offset int
	// OnPlanChosen, when non-nil, is invoked on the caller's goroutine
	// right after the plan is fixed (searched, overridden, or trivial),
	// with the cost model's predicted T_mcs in nanoseconds (0 when no
	// estimate exists). mcsd's per-query watchdog uses it to scale a
	// wall-clock kill budget to the query actually being run, before
	// the expensive stages start.
	OnPlanChosen func(predictedNS float64)
}

// RunContext executes q against t with cooperative cancellation, fault
// containment, and budget degradation: a cancelled or deadline-expired
// context makes the query return ctx.Err() within one chunk of work with
// no goroutine leaks, a panicking worker surfaces as a
// *pipeerr.PipelineError naming the stage instead of crashing the
// process, and Options.MaxBytes triggers worker degradation or a typed
// ErrBudgetExceeded refusal. On any error the returned Result is nil and
// the table is untouched.
func RunContext(ctx context.Context, t *table.Table, q Query, opts Options) (*Result, error) {
	res, err := runContext(ctx, t, q, opts)
	if err == nil {
		// Final poll: a cancellation that lands during the last chunk of
		// the last stage must still be honored, not dropped.
		err = ctx.Err()
	}
	if err != nil {
		return nil, pipeerr.NoteCancel(err)
	}
	return res, nil
}

// wrap prefixes err with the query's ID when it has one.
func (q Query) wrap(err error) error {
	if q.ID == "" {
		return err
	}
	return fmt.Errorf("%s: %w", q.ID, err)
}

func runContext(ctx context.Context, t *table.Table, q Query, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Limit != nil && *opts.Limit < 0 {
		return nil, q.wrap(fmt.Errorf("negative limit %d", *opts.Limit))
	}
	if opts.Offset < 0 {
		return nil, q.wrap(fmt.Errorf("negative offset %d", opts.Offset))
	}
	if opts.Limit != nil && opts.Offset+*opts.Limit < *opts.Limit {
		return nil, q.wrap(fmt.Errorf("limit %d + offset %d overflows", *opts.Limit, opts.Offset))
	}
	b, err := Bind(t, q)
	if err != nil {
		return nil, q.wrap(err)
	}
	res := &Result{}

	// 1. Filters: ByteSlice scans ANDed into one bit vector.
	start := time.Now()
	sel, err := b.Select(ctx)
	if err != nil {
		return nil, q.wrap(err)
	}
	rows, err := sel.Rows(ctx)
	if err != nil {
		return nil, err
	}
	res.Timing.FilterScan = time.Since(start)
	res.Rows = len(rows)

	// LIMIT 0: the result is empty whatever the data; skip the sort
	// pipeline entirely (the filter already ran, so Rows is still the
	// filtered count, matching the unlimited execution).
	if opts.Limit != nil && *opts.Limit == 0 {
		return res, nil
	}

	// Budget, stage 1 (row count known, plan not yet): refuse before
	// materializing anything when even a minimal sequential pipeline
	// cannot fit, and bound the workers used by the gather stage.
	workers, err := budgetWorkers(opts.Workers, opts.MaxBytes, len(rows), len(b.Sort), 1)
	if err != nil {
		return nil, q.wrap(err)
	}

	// 2. Materialize the sort columns for the selected rows with
	// ByteSlice lookups.
	start = time.Now()
	inputs, err := b.materialize(ctx, rows, workers)
	if err != nil {
		return nil, err
	}
	res.Timing.Materialize = time.Since(start)

	// 3. Plan: search (massaging on) or column-at-a-time (off).
	choice, searchTime, err := b.ChoosePlan(ctx, len(rows), opts)
	if err != nil {
		return nil, q.wrap(err)
	}
	res.Timing.PlanSearch = searchTime
	res.Plan = choice.Plan
	res.ColOrder = choice.ColOrder
	if opts.OnPlanChosen != nil {
		opts.OnPlanChosen(choice.Est)
	}

	// Budget, stage 2 (plan known): re-run degradation with the real
	// round count, which dominates the round-key footprint.
	workers, err = budgetWorkers(workers, opts.MaxBytes, len(rows), len(b.Sort), len(choice.Plan.Rounds))
	if err != nil {
		return nil, q.wrap(err)
	}
	res.Workers = workers

	// 4. Multi-column sort under the chosen column order and plan. A
	// Limit truncates the sort itself, at the rank SortCut names.
	mopts := mcsort.Options{Workers: workers, SortParams: opts.SortParams}
	mopts.LimitRows, mopts.LimitGroups = SortCut(q, opts.Limit, opts.Offset)
	ordered := make([]massage.Input, len(inputs))
	for i, c := range choice.ColOrder {
		ordered[i] = inputs[c]
	}
	mres, err := mcsort.ExecuteContext(ctx, ordered, choice.Plan, mopts)
	if err != nil {
		return nil, err
	}
	res.Timing.MCS = mres.Timings
	res.PredictedMCS = choice.Est
	recordCostAccuracy(choice.Est, mres.Timings.Total())

	// 5. Consume the sorted output.
	start = time.Now()
	if q.Window != nil {
		// The permutation indexes the materialized arrays; ranks are
		// prefix-computable, so ranking the truncated permutation and
		// slicing off the offset equals slicing the full ranking.
		res.Ranks, err = RankSorted(ctx, mres.Perm, len(inputs), func(p uint32, dst []uint64) {
			for c := range dst {
				dst[c] = inputs[c].Codes[p]
			}
		})
		if err != nil {
			return nil, err
		}
		res.RowOids = make([]uint32, len(mres.Perm))
		for i, p := range mres.Perm {
			if i&(seqGatherCheckRows-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			res.RowOids[i] = rows[p]
		}
		lo, hi := OutputWindow(len(res.Ranks), opts.Limit, opts.Offset)
		res.Ranks, res.RowOids = res.Ranks[lo:hi], res.RowOids[lo:hi]
		res.Timing.Aggregate = time.Since(start)
		return res, nil
	}
	if err := aggregate(ctx, res, b, inputs, rows, mres, workers); err != nil {
		return nil, err
	}
	res.Timing.Aggregate = time.Since(start)

	// 6. ORDER BY aggregate DESC: single-column sort over groups.
	if q.OrderByAgg {
		start = time.Now()
		res.GroupKeys, res.Aggregates, err = SortGroupsByAggregate(ctx, res.GroupKeys, res.Aggregates)
		if err != nil {
			return nil, err
		}
		res.Timing.PostSort = time.Since(start)
	}

	// 7. Slice the group table to [Offset, Offset+Limit). The sort
	// already truncated to at most Offset+Limit groups unless OrderByAgg
	// reordered them above (then every group was kept and the slice does
	// all the work).
	lo, hi := OutputWindow(len(res.Aggregates), opts.Limit, opts.Offset)
	res.GroupKeys, res.Aggregates = res.GroupKeys[lo:hi], res.Aggregates[lo:hi]
	return res, nil
}

// recordCostAccuracy publishes one query's predicted and measured
// multi-column-sort cost on the aggregate counters. The ratio gauge is
// recomputed from the running totals so `pred_over_meas_x1000` always
// reflects every query so far (1000 = perfectly calibrated model). The
// per-query numbers travel in Result (PredictedMCS, CostRatio), not in
// the registry: a counter per client-chosen id would never be freed.
func recordCostAccuracy(predictedNS float64, measured time.Duration) {
	if !obs.Enabled() {
		return
	}
	obsQueries.Inc()
	if predictedNS <= 0 || measured <= 0 {
		return
	}
	obsPredictedNS.Add(int64(predictedNS))
	obsMeasuredNS.Add(int64(measured))
	if m := obsMeasuredNS.Value(); m > 0 {
		obsPredOverMeasMi.Set(obsPredictedNS.Value() * 1000 / m)
	}
}

// aggregate computes per-group keys and the aggregate, scanning
// contiguous group ranges across workers (each group's output slot is
// owned by exactly one range). It gathers the aggregate column once,
// after the sort (EstimatePipelineBytes), and each group's keys are a
// full-slice window of one flat table, so appending to them cannot
// write into the next group's.
func aggregate(ctx context.Context, res *Result, b *Bound, inputs []massage.Input, rows []uint32, mres *mcsort.Result, workers int) error {
	var vals []uint64
	if b.agg != nil {
		vals = make([]uint64, len(rows))
		if err := gatherParallel(ctx, vals, rows, b.agg, workers); err != nil {
			return err
		}
	}
	nGroups, m := len(mres.Groups)-1, len(inputs)
	flat := make([]uint64, nGroups*m)
	res.GroupKeys = make([][]uint64, nGroups)
	res.Aggregates = make([]uint64, nGroups)
	avg := b.agg != nil && b.Query.Agg.Kind == Avg
	pass := pipeerr.Pass{Stage: pipeerr.StageAggregate, Round: -1, Site: faultinject.Aggregate, MinRows: 2 * workers}
	if pass.Parallel(nGroups, workers) {
		obsAggGroups.Add(int64(nGroups))
	}
	return pass.Rows(ctx, nGroups, workers, func(first, end int) {
		for g := first; g < end; g++ {
			lo, hi := int(mres.Groups[g]), int(mres.Groups[g+1])
			rep := mres.Perm[lo] // any row of the group carries its keys
			keys := flat[g*m : (g+1)*m : (g+1)*m]
			for c, in := range inputs {
				keys[c] = in.Codes[rep]
			}
			res.GroupKeys[g] = keys
			acc := uint64(hi - lo) // Count, or no aggregate
			if vals != nil {
				acc = 0
				for i := lo; i < hi; i++ {
					acc += vals[mres.Perm[i]]
				}
				if avg {
					acc /= uint64(hi - lo)
				}
			}
			res.Aggregates[g] = acc
		}
	})
}

// SortGroupsByAggregate returns the group table reordered by descending
// aggregate — the trailing ORDER BY <aggregate> DESC — using the
// 64-bit-bank single-column radix sort over complemented aggregates. The
// sharded coordinator re-sorts its merged groups through this same
// function, so for equal group tables the two orders agree entry for
// entry, ties included. The group count is data-bound, so the fill,
// the sort and the reorder all poll ctx; on error the inputs are
// untouched.
func SortGroupsByAggregate(ctx context.Context, groupKeys [][]uint64, aggregates []uint64) ([][]uint64, []uint64, error) {
	n := len(aggregates)
	keys := make([]uint64, n)
	idx := make([]uint32, n)
	for i, a := range aggregates {
		if i&(seqGatherCheckRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		keys[i] = ^a // descending via complement
		idx[i] = uint32(i)
	}
	if err := mergesort.SortWithParamsContext(ctx, 64, keys, idx, mergesort.Params{}); err != nil {
		return nil, nil, err
	}
	gk := make([][]uint64, n)
	ag := make([]uint64, n)
	for i, j := range idx {
		if i&(seqGatherCheckRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		gk[i], ag[i] = groupKeys[j], aggregates[j]
	}
	return gk, ag, nil
}
