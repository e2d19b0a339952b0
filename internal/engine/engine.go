// Package engine executes the evaluation queries over WideTables with
// the paper's physical operators: ByteSlice-Scan (filters),
// Code-Massage + radix sort (multi-column sorting, via internal/mcsort,
// which reads the sort columns straight from their ByteSlices), grouped
// aggregation, and window RANK — both read from the sorted round keys.
// Every operator's wall time is recorded so experiments can reproduce
// the paper's per-query time breakdowns (Figures 1 and 9).
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
	"sort"
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
	obsAggCarried     = obs.NewCounter("engine.agg_carried")
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
	PlanSearch time.Duration
	FilterScan time.Duration
	MCS        mcsort.Timings
	Aggregate  time.Duration // aggregation or ranking of the sorted rows
	PostSort   time.Duration // single-column sorting after aggregation
}

// Total sums all phases.
func (t Timing) Total() time.Duration {
	return t.PlanSearch + t.FilterScan + t.MCS.Total() + t.Aggregate + t.PostSort
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
	// Ranks[i] pairs with RowOids[i] for window queries; nil under
	// Options.OidsOnly.
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
	// Model prices the plan search; nil means costmodel.Builtin().
	Model *costmodel.Model
	Rho   float64
	// MaxPlans caps the number of candidate plans the search costs
	// (planner.Search.MaxPlans): a counted, machine-independent budget.
	// Pair it with a negative Rho for deterministic plan choice under
	// bounded search work; 0 means no cap.
	MaxPlans int
	// Workers parallelizes the whole pipeline when > 1: the filter scans
	// and the row list, massaging, every sorting round, the aggregate
	// column's gather and the aggregation scan. Results are
	// byte-identical for any value.
	Workers int
	// MaxBytes bounds the estimated transient memory footprint of the
	// sort pipeline. When the estimate at the requested worker count
	// exceeds it, the engine halves workers until it fits; when even
	// sequential execution does not fit, the query is refused with
	// pipeerr.ErrBudgetExceeded. <= 0 means unlimited.
	MaxBytes int64
	// SortParams carries the sort-kernel hook (mergesort.Params.Sort:
	// the figure experiments plug in the paper's kernel); output is
	// byte-identical either way.
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
	// truncated path — a top-K round 0, survivors-only later rounds
	// — cut at rank Offset+Limit, and the result is byte-identical to
	// the unlimited result sliced to [Offset, Offset+Limit) at any
	// worker count, cached or uncached.
	Limit *int
	// Offset drops the first Offset output entries (applied after the
	// sort, before Limit counts). Negative values are rejected. An
	// Offset without a Limit slices the full result.
	Offset int
	// OidsOnly makes a window query return its rows' oids in sorted
	// order without their ranks (Result.Ranks stays nil). The sharded
	// coordinator's sub-queries set it: the coordinator ranks the merged
	// rows itself from their sort keys, so a shard's ranks would be
	// computed, shipped and dropped. Ignored by group queries.
	OidsOnly bool
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

	// 1. Filters: ByteSlice scans ANDed into one bit vector, and its
	// row list, each a pass across the requested workers.
	start := time.Now()
	sel, err := b.Select(ctx, opts.Workers)
	if err != nil {
		return nil, q.wrap(err)
	}
	rows, err := sel.Rows(ctx, opts.Workers)
	if err != nil {
		return nil, q.wrap(err)
	}
	res.Timing.FilterScan = time.Since(start)
	res.Rows = sel.Count()

	// LIMIT 0: the result is empty whatever the data; skip the sort
	// pipeline entirely (the filter already ran, so Rows is still the
	// filtered count, matching the unlimited execution).
	if opts.Limit != nil && *opts.Limit == 0 {
		return res, nil
	}

	// Budget, stage 1 (row count known, plan not yet): refuse before
	// sorting anything when even a minimal sequential pipeline cannot
	// fit.
	if opts.Workers, err = budgetWorkers(opts.Workers, opts.MaxBytes, res.Rows, 1); err != nil {
		return nil, q.wrap(err)
	}

	// 2. Plan: search (massaging on) or column-at-a-time (off).
	choice, searchTime, err := b.ChoosePlan(ctx, res.Rows, opts)
	if err != nil {
		return nil, q.wrap(err)
	}
	res.Timing.PlanSearch = searchTime
	res.Plan = choice.Plan
	res.ColOrder = choice.ColOrder
	if opts.OnPlanChosen != nil {
		opts.OnPlanChosen(choice.Est)
	}

	// 3. Multi-column sort under the chosen column order and plan, after
	// stage 2 of the budget (plan known: the real round count dominates
	// the round-key footprint). Its massage reads the sort columns' bits
	// straight from the ByteSlices' planes, so no sort column is ever
	// materialised (late materialisation, docs/topk.md). A Limit
	// truncates the sort itself, at the rank SortCut names. A Sum or
	// Avg column may ride through an uncut sort in place of the oids
	// (Bound.payload).
	_, limitGroups := SortCut(q, opts.Limit, opts.Offset)
	payload := b.payload(rows, limitGroups)
	mres, workers, err := sortColumns(ctx, q, b.sources(rows), choice, opts, payload)
	if err != nil {
		return nil, err
	}
	res.Workers = workers
	res.Timing.MCS = mres.Timings
	res.PredictedMCS = choice.Est
	recordCostAccuracy(choice.Est, mres.Timings.Total())

	// 4. Consume the sorted output: ranks and group keys come from the
	// sorted round keys, never from the sort columns through the
	// permutation.
	start = time.Now()
	if q.Window != nil {
		lo, hi := OutputWindow(len(mres.Perm), opts.Limit, opts.Offset)
		if !opts.OidsOnly {
			if res.Ranks, err = rankPage(ctx, mres, b.partitionBits(), lo, hi); err != nil {
				return nil, err
			}
		}
		// An unfiltered selection's positions are its row ids.
		res.RowOids = mres.Perm[lo:hi:hi]
		if rows != nil {
			res.RowOids = make([]uint32, hi-lo)
			for i, p := range mres.Perm[lo:hi] {
				if i&(seqGatherCheckRows-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				res.RowOids[i] = rows[p]
			}
		}
		res.Timing.Aggregate = time.Since(start)
		return res, nil
	}
	if err := aggregate(ctx, res, b, rows, mres, choice.ColOrder, workers, payload != nil); err != nil {
		return nil, err
	}
	if payload != nil {
		obsAggCarried.Inc()
	}
	res.Timing.Aggregate = time.Since(start)

	// 5. ORDER BY aggregate DESC: single-column sort over groups.
	if q.OrderByAgg {
		start = time.Now()
		res.GroupKeys, res.Aggregates, err = SortGroupsByAggregate(ctx, res.GroupKeys, res.Aggregates)
		if err != nil {
			return nil, err
		}
		res.Timing.PostSort = time.Since(start)
	}

	// 6. Slice the group table to [Offset, Offset+Limit). The sort
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

// aggregate computes per-group keys and the aggregate over contiguous
// group ranges across workers, cut where the rows, not the groups,
// split evenly (rowCut). A range's group keys are decoded from the
// sorted round keys at its groups' first positions
// (mcsort.Result.Codes), a block of group starts at a time, straight
// into clause order through order, the column order the sort ran in,
// in one flat table per range, which its worker allocates; a group's
// keys are a full-slice window of that table, so appending to it
// cannot write into the next group's. The windows are set once every
// range is done and mres's round keys are dropped (mres.Keys = nil):
// the round keys and the table of slice headers are never live
// together. Sum and Avg read the aggregate
// column in sorted order: when the sort carried it (carried,
// mcsort.Options.Payload, under a plan of any round count), a group's
// codes are its slice of mres.Perm, summed in order. Otherwise, one
// aggSweep block of positions is read from its massage.Source at a
// time (At), and a column wider than 32
// bits, when the sort kept every row, is first read whole in selection
// order (Range): a random row of five to eight planes spans as many
// cache lines, one 8-byte read does not (EstimatePipelineBytes).
// res.Rows is the selection's row count.
func aggregate(ctx context.Context, res *Result, b *Bound, rows []uint32, mres *mcsort.Result, order []int, workers int, carried bool) error {
	var src *massage.Source
	var sel []uint64
	if b.agg != nil && !carried {
		src = &massage.Source{Column: b.agg, Rows: rows}
		if b.agg.Width > 32 && len(mres.Perm) == res.Rows {
			sel = make([]uint64, res.Rows)
			if err := gatherParallel(ctx, sel, src, workers); err != nil {
				return err
			}
		}
	}
	nGroups, m := len(mres.Groups)-1, len(b.Sort)
	res.Aggregates = make([]uint64, nGroups)
	avg := b.agg != nil && b.Query.Agg.Kind == Avg
	run := func(first, end int) []uint64 {
		flat := make([]uint64, (end-first)*m)
		mres.Codes(flat, mres.Groups[first:end], order)
		var sw *aggSweep
		if src != nil {
			sw = &aggSweep{src: src, perm: mres.Perm, sel: sel, end: int(mres.Groups[end]),
				ids: make([]uint32, aggBlock), vals: make([]uint64, aggBlock)}
		}
		for g := first; g < end; g++ {
			lo, hi := int(mres.Groups[g]), int(mres.Groups[g+1])
			acc := uint64(hi - lo) // Count, or no aggregate
			switch {
			case carried:
				acc = sumCodes(mres.Perm[lo:hi])
			case sw != nil:
				acc = sw.sum(lo, hi)
			}
			if avg {
				acc /= uint64(hi - lo)
			}
			res.Aggregates[g] = acc
		}
		return flat
	}
	pass := pipeerr.Pass{Stage: pipeerr.StageAggregate, Round: -1, Site: faultinject.Aggregate, MinRows: 2 * workers}
	bounds, w := pass.Split(nGroups, 1)
	if pass.Parallel(nGroups, workers) {
		obsAggGroups.Add(int64(nGroups))
		bounds, w = rowCut(mres.Groups, workers), workers
	}
	flats := make([][]uint64, len(bounds)-1)
	err := pass.Ranges(ctx, w, len(flats), func(_ context.Context, i int) error {
		flats[i] = run(bounds[i], bounds[i+1])
		return nil
	})
	if err != nil {
		return err
	}
	// Every group's keys are decoded: the round keys are dead, and are
	// dropped before the group table's slice headers are allocated, so
	// the two are never live together. The headers are one store per
	// group, on this goroutine.
	mres.Keys = nil
	res.GroupKeys = make([][]uint64, nGroups)
	for i, flat := range flats {
		if err := ctx.Err(); err != nil {
			return err
		}
		first := bounds[i]
		for g := first; g < bounds[i+1]; g++ {
			k := (g - first) * m
			res.GroupKeys[g] = flat[k : k+m : k+m]
		}
	}
	return nil
}

// sumCodes is the wrapping sum of a group's carried aggregate codes.
func sumCodes(codes []uint32) uint64 {
	var acc uint64
	for _, c := range codes {
		acc += uint64(c)
	}
	return acc
}

// aggBlock is the number of sorted positions an aggSweep decodes at
// once: their row ids (4 KiB) and values (8 KiB) stay in L1 while the
// block is summed.
const aggBlock = 1024

// aggSweep reads the aggregate column of one range of groups in sorted
// order. Position i holds the code of selection row perm[i]: read from
// src a block at a time, or from sel, the column in selection order,
// when the aggregate read one.
type aggSweep struct {
	src    *massage.Source
	perm   []uint32
	sel    []uint64
	end    int // the range's last position + 1: no block reads past it
	lo, hi int // the positions vals holds
	ids    []uint32
	vals   []uint64
}

// sum returns the wrapping sum of positions [lo, hi), which must follow
// the positions of the previous call.
func (s *aggSweep) sum(lo, hi int) uint64 {
	var acc uint64
	for lo < hi {
		if lo >= s.hi {
			s.fill(lo)
		}
		stop := min(hi, s.hi)
		for _, v := range s.vals[lo-s.lo : stop-s.lo] {
			acc += v
		}
		lo = stop
	}
	return acc
}

// fill decodes the block of positions that starts at lo.
func (s *aggSweep) fill(lo int) {
	s.lo, s.hi = lo, min(lo+aggBlock, s.end)
	perm, vals := s.perm[s.lo:s.hi], s.vals[:s.hi-s.lo]
	if s.sel == nil {
		s.src.At(vals, perm, s.ids)
		return
	}
	for j, p := range perm {
		vals[j] = s.sel[p]
	}
}

// rowCut cuts the groups of a sorted order into at most workers ranges
// of about equal rows — range i is groups [bounds[i], bounds[i+1]) — at
// the group starts nearest the row quantiles: a group count cut leaves
// one worker most of the sums when the first groups are the big ones.
func rowCut(groups []int32, workers int) []int {
	nGroups, rows := len(groups)-1, int(groups[len(groups)-1])
	bounds := make([]int, 1, workers+1)
	for k := 1; k < workers; k++ {
		target := int32(k * rows / workers)
		g := sort.Search(nGroups, func(g int) bool { return groups[g] >= target })
		if g > 0 && target-groups[g-1] < groups[g]-target {
			g-- // the start below is nearer
		}
		if g > bounds[len(bounds)-1] && g < nGroups {
			bounds = append(bounds, g)
		}
	}
	return append(bounds, nGroups)
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
	if err := mergesort.SortScratchContext(ctx, 64, keys, idx, mergesort.Params{}, nil); err != nil {
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
