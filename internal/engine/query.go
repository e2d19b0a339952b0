// What a Query means against a Table, said once. RunContext composes
// these steps; every layer that must agree with a single-node run —
// mcsd's admission and plan cache, the sharded coordinator's pin and
// cross-shard merge, the experiments' materializer — calls them instead
// of re-deriving them, so byte-identity between a coordinator and a
// single node holds by construction: Bind (column names → ByteSlices,
// sort clause in materialization order), Select (filters → selection),
// SortCut (LIMIT/OFFSET → where the sort may stop), ChoosePlan (query +
// row count → Stats → Search → ROGA), SortInputCols (which sort
// columns are materialized), PartitionStart and RankSorted (RANK over a
// sorted order, from a page's partition start), OutputWindow (the
// [offset, offset+limit) clamp).
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/byteslice"
	"repro/internal/costmodel"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/table"
)

// ErrUnknownColumn classifies a query that names a column its table
// does not have — the caller's mistake, never retryable (mcsd answers
// 400, kind "invalid"). Match with errors.Is.
var ErrUnknownColumn = errors.New("engine: unknown column")

// Bound is a Query with every column it names resolved against a
// Table. Binding is the only place a column name is looked up, so a
// query either fails here with ErrUnknownColumn — before admission,
// fan-out or any scan — or never fails on a name at all.
type Bound struct {
	Table *table.Table
	Query Query
	// Sort is the full sort clause in materialization order: the
	// query's sort columns, then a window's ORDER BY column. Cols holds
	// the ByteSlice of each entry.
	Sort []SortCol
	Cols []*byteslice.BS

	filters []*byteslice.BS // one per Query.Filters entry
	agg     *byteslice.BS   // the aggregated column; nil for Count or no aggregate
}

// Bind resolves q's sort, window-order, filter and aggregate columns
// in t.
func Bind(t *table.Table, q Query) (*Bound, error) {
	b := &Bound{Table: t, Query: q, Sort: q.SortCols}
	if q.Window != nil {
		b.Sort = append(append([]SortCol(nil), q.SortCols...),
			SortCol{Name: q.Window.OrderCol, Desc: q.Window.Desc})
	}
	col := func(name string) (*byteslice.BS, error) {
		bs, err := t.ByteSlice(name)
		if err != nil {
			return nil, fmt.Errorf("%w %q in table %s", ErrUnknownColumn, name, t.Name)
		}
		return bs, nil
	}
	var err error
	b.Cols = make([]*byteslice.BS, len(b.Sort))
	for i, sc := range b.Sort {
		if b.Cols[i], err = col(sc.Name); err != nil {
			return nil, err
		}
	}
	b.filters = make([]*byteslice.BS, len(q.Filters))
	for i, f := range q.Filters {
		if b.filters[i], err = col(f.Col); err != nil {
			return nil, err
		}
	}
	if q.Agg != nil && q.Agg.Kind != Count {
		if b.agg, err = col(q.Agg.Col); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Selection is the set of rows a query's filters keep.
type Selection struct {
	n  int                  // table rows
	bv *byteslice.BitVector // nil: no filter, all n rows selected
}

// Select runs the filter stage: one ByteSlice scan per filter, ANDed
// into one bit vector.
func (b *Bound) Select(ctx context.Context) (Selection, error) {
	sel := Selection{n: b.Table.N}
	for i, f := range b.Query.Filters {
		if err := ctx.Err(); err != nil {
			return Selection{}, err
		}
		var bv *byteslice.BitVector
		var err error
		if f.Between {
			bv, err = b.filters[i].ScanBetween(f.Lo, f.Hi)
		} else {
			bv, err = b.filters[i].Scan(f.Op, f.Const)
		}
		if err != nil {
			return Selection{}, err
		}
		if sel.bv == nil {
			sel.bv = bv
		} else {
			sel.bv.And(bv)
		}
	}
	return sel, nil
}

// Count is the number of selected rows — the N the plan search sees.
func (s Selection) Count() int {
	if s.bv == nil {
		return s.n
	}
	return s.bv.Count()
}

// Rows lists the selected row ids in ascending order. The unfiltered
// identity fill polls ctx at the sequential-gather stride so a
// cancelled query does not pay the full O(n) pass.
func (s Selection) Rows(ctx context.Context) ([]uint32, error) {
	if s.bv != nil {
		return s.bv.Rows(), nil
	}
	rows := make([]uint32, s.n)
	for i := range rows {
		if i&(seqGatherCheckRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rows[i] = uint32(i)
	}
	return rows, nil
}

// materialize gathers every Sort column's codes for the selected rows
// with ByteSlice lookups, chunked across workers.
func (b *Bound) materialize(ctx context.Context, rows []uint32, workers int) ([]massage.Input, error) {
	inputs := make([]massage.Input, len(b.Cols))
	for i, bs := range b.Cols {
		codes := make([]uint64, len(rows))
		if err := gatherParallel(ctx, codes, rows, bs, workers); err != nil {
			return nil, err
		}
		inputs[i] = massage.Input{Codes: codes, Width: bs.Width, Desc: b.Sort[i].Desc}
	}
	return inputs, nil
}

// sources describes every Sort column as a ByteSlice-backed sort input
// over the selected rows: what a truncated sort reads instead of
// materialized codes.
func (b *Bound) sources(rows []uint32) []massage.Input {
	inputs := make([]massage.Input, len(b.Cols))
	for i, bs := range b.Cols {
		inputs[i] = massage.Input{Width: bs.Width, Desc: b.Sort[i].Desc, Source: &massage.Source{Column: bs, Rows: rows}}
	}
	return inputs
}

// SortInputCols is the number of sort columns RunContext materializes
// before sorting rows selected rows under limit and offset: none when
// the sort is truncated (mcsort.Truncated at SortCut's cut), since it
// reads the ByteSlices itself, every one otherwise. It is the nCols
// both callers of EstimatePipelineBytes charge: the engine's
// degradation and mcsd's admission.
func (b *Bound) SortInputCols(rows int, limit *int, offset int) int {
	if limitRows, limitGroups := SortCut(b.Query, limit, offset); mcsort.Truncated(rows, limitRows, limitGroups) {
		return 0
	}
	return len(b.Sort)
}

// MaterializeSortInputsContext runs a query's filter and materialization
// stages only, returning the multi-column-sort inputs (in clause order,
// with the window order column appended for window queries). Plan-space
// experiments use this to execute many plans over identical inputs.
// The gathers are chunked across workers when workers > 1 and poll the
// context like RunContext's.
func MaterializeSortInputsContext(ctx context.Context, t *table.Table, q Query, workers int) ([]massage.Input, error) {
	b, err := Bind(t, q)
	if err != nil {
		return nil, err
	}
	sel, err := b.Select(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := sel.Rows(ctx)
	if err != nil {
		return nil, err
	}
	return b.materialize(ctx, rows, workers)
}

// SortCut maps a LIMIT/OFFSET to the rank the multi-column sort may
// stop at (docs/topk.md): window queries consume ranked rows, so they
// cut at row rank offset+limit; everything else consumes the group
// table and cuts at that group rank; ORDER BY <aggregate> reorders the
// groups after the sort, so it needs every group and cuts nothing.
// Exactly one of the two results is non-zero under a cut; both are 0
// without one (no limit, or LIMIT 0, which sorts nothing at all). The
// same pair truncates the sort (mcsort.Options), teaches the plan
// search the truncation (costmodel.Stats) and pre-cuts the
// coordinator's shard sub-queries.
func SortCut(q Query, limit *int, offset int) (limitRows, limitGroups int) {
	switch {
	case limit == nil || *limit == 0 || q.OrderByAgg:
		return 0, 0
	case q.Window != nil:
		return offset + *limit, 0
	default:
		return 0, offset + *limit
	}
}

// OutputWindow clamps the [offset, offset+limit) output window to n
// entries (ranked rows or groups); a nil limit runs to the end.
func OutputWindow(n int, limit *int, offset int) (lo, hi int) {
	lo, hi = offset, n
	if lo > n {
		lo = n
	}
	if limit != nil && lo+*limit < hi {
		hi = lo + *limit
	}
	return lo, hi
}

// ValidateColOrder rejects a pinned column order (Options.FixedColOrder,
// the col_order wire field) that is not a permutation of the m sort
// columns, permutes an ORDER BY (whose column order is semantic), or
// moves a window's ORDER BY column off the last position (partition
// ranges must stay contiguous in the sorted output).
func ValidateColOrder(order []int, m int, kind planner.ClauseKind, window bool) error {
	if len(order) != m {
		return fmt.Errorf("col order has %d entries for %d sort columns", len(order), m)
	}
	seen := make([]bool, m)
	for i, c := range order {
		if c < 0 || c >= m || seen[c] {
			return fmt.Errorf("col order %v is not a permutation of [0,%d)", order, m)
		}
		seen[c] = true
		if kind == planner.OrderBy && c != i {
			return fmt.Errorf("col order %v reorders an ORDER BY", order)
		}
	}
	if window && order[m-1] != m-1 {
		return fmt.Errorf("col order %v moves the window ORDER BY column off the tail", order)
	}
	return nil
}

// ChoosePlan fixes the column order and massage plan for sorting rows
// selected rows of the bound query: opts.PlanOverride verbatim,
// column-at-a-time with massaging off, otherwise the ROGA search over
// the table's precomputed column statistics (as in any DBMS), taught
// the LIMIT truncation (which sets the round widths; a free column
// order is the unlimited search's, so a page is the unlimited result
// sliced), with a window's ORDER BY column pinned last and
// opts.FixedColOrder confining the permutation. Only the search itself
// is timed. The sharded coordinator pins its plan by calling this over
// the full table with the full table's filtered row count — the pin is
// the single node's choice, not a replica of it.
func (b *Bound) ChoosePlan(ctx context.Context, rows int, opts Options) (planner.Choice, time.Duration, error) {
	if opts.PlanOverride != nil {
		return *opts.PlanOverride, 0, nil
	}
	q := b.Query
	if len(opts.FixedColOrder) > 0 {
		if err := ValidateColOrder(opts.FixedColOrder, len(b.Sort), q.Kind, q.Window != nil); err != nil {
			return planner.Choice{}, 0, err
		}
	}
	if !opts.Massaging {
		order, widths := make([]int, len(b.Sort)), make([]int, len(b.Sort))
		for i := range order {
			order[i] = i
			if len(opts.FixedColOrder) > 0 {
				order[i] = opts.FixedColOrder[i]
			}
			widths[i] = b.Cols[order[i]].Width
		}
		return planner.Choice{ColOrder: order, Plan: plan.ColumnAtATime(widths)}, 0, nil
	}
	model := opts.Model
	if model == nil {
		model = costmodel.Builtin()
	}
	st := costmodel.Stats{N: rows}
	// Teach the search about the truncation (docs/topk.md): the
	// truncated TMCS pays massage per round over a shrinking survivor
	// set, which shifts the stitch-vs-sort crossovers toward narrow
	// plans at small K.
	st.LimitRows, st.LimitGroups = SortCut(q, opts.Limit, opts.Offset)
	for _, sc := range b.Sort {
		cs, err := b.Table.Stats(sc.Name)
		if err != nil {
			return planner.Choice{}, 0, err
		}
		st.Cols = append(st.Cols, cs)
	}
	start := time.Now()
	search := &planner.Search{Model: model, Stats: st, Kind: q.Kind, Rho: opts.Rho, MaxPlans: opts.MaxPlans,
		FixedOrder: opts.FixedColOrder}
	if q.Window != nil {
		search.FixedTail = 1 // the window's ORDER BY column stays last
	}
	choice, err := planner.ROGAContext(ctx, search)
	if err != nil {
		return planner.Choice{}, 0, err
	}
	return choice, time.Since(start), nil
}

// rankCheckRows is the number of rows RankSorted ranks between context
// polls.
const rankCheckRows = 1 << 12

// PartitionStart returns the position of the first row of the
// partition holding order[at]: it walks back from at while the rows
// agree with order[at] on the nPart partition columns, read(id, dst)
// filling dst with a row's first len(dst) sort-column codes as in
// RankSorted. Ranking order from there ranks order[at:] exactly, so a
// page starting at at needs nothing before its partition. at =
// len(order) returns at. The walk is data-bound (one partition may span
// every row), so it polls ctx every rankCheckRows rows.
func PartitionStart(ctx context.Context, order []uint32, at, nPart int, read func(id uint32, dst []uint64)) (int, error) {
	if at == 0 || at == len(order) {
		return at, nil
	}
	want, cur := make([]uint64, nPart), make([]uint64, nPart)
	read(order[at], want)
	i := at
	for ; i > 0; i-- {
		if (at-i)&(rankCheckRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		read(order[i-1], cur)
		if !slices.Equal(cur, want) {
			break
		}
	}
	return i, nil
}

// RankSorted assigns RANK() OVER (PARTITION BY … ORDER BY …) to rows
// already in sorted order. order[i] identifies the i-th sorted row and
// read(id, dst) fills dst with that row's nCols sort-column codes —
// partition columns first, the ORDER BY column last; the engine reads
// its materialized arrays by selection index, the coordinator
// ByteSlice-looks-up the full table by global oid. Rows tied on the
// partition columns form a partition; within it, rows share a rank when
// tied on the order column, and rank counts rows, not distinct values
// (code inequality is invariant under the descending complement, so raw
// codes suffice). order may be a truncated prefix of the sorted rows:
// ranks only look backward, so ranking the prefix is exact. The row
// count is data-bound, so the pass polls ctx every rankCheckRows rows.
func RankSorted(ctx context.Context, order []uint32, nCols int, read func(id uint32, dst []uint64)) ([]uint32, error) {
	ranks := make([]uint32, len(order))
	prev, cur := make([]uint64, nCols), make([]uint64, nCols)
	nPart := nCols - 1
	var rank, seen uint32
	for i, id := range order {
		if i&(rankCheckRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		read(id, cur)
		// Partitions are contiguous in sorted order, so "same partition as
		// the previous row" is "same partition as the partition's first".
		samePartition := i > 0
		for c := 0; samePartition && c < nPart; c++ {
			samePartition = cur[c] == prev[c]
		}
		if !samePartition {
			rank, seen = 1, 1
		} else {
			seen++
			if cur[nPart] != prev[nPart] {
				rank = seen
			}
		}
		ranks[i] = rank
		prev, cur = cur, prev
	}
	return ranks, nil
}
