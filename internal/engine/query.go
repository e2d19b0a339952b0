// What a Query means against a Table, said once. RunContext composes
// these steps; every layer that must agree with a single-node run —
// mcsd's admission and plan cache, the sharded coordinator's pin and
// cross-shard merge, the experiments' materializer — calls them instead
// of re-deriving them, so byte-identity between a coordinator and a
// single node holds by construction: Bind (column names → ByteSlices,
// sort clause in clause order), Select (filters → selection), SortCut
// (LIMIT/OFFSET → where the sort may stop), ChoosePlan (query + row
// count → Stats → Choose), OutputWindow (the [offset, offset+limit)
// clamp). rankPage is RANK over a sorted page, from its groups. The
// plan search (NewSearch), plan choice (Choose) and sort (SortColumns)
// also serve mcs.Sort, mcsplan and the plan-space experiments; PlanKey
// says what a memoized choice of that search depends on.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/byteslice"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/pipeerr"
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
	// Sort is the full sort clause in clause order: the query's sort
	// columns, then a window's ORDER BY column. Cols holds the ByteSlice
	// of each entry.
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

// filterAlign is the alignment of the filter stage's passes over a
// table's rows, whose ranges are runs of whole bit vector words:
// interior bounds fall on multiples of 512 rows, one 64-byte line of
// words, so no two workers share a line, and the sequential blocks of
// pipeerr.BlockRows rows are whole words too. The passes go parallel
// from one such block on: below it a sequential pass is one range.
const filterAlign = 512

// wordRange is the range of bit vector words that rows [lo, hi) of a
// filter stage range cover.
func wordRange(lo, hi int) (int, int) { return lo / 64, (hi + 63) / 64 }

// Select runs the filter stage: one ByteSlice scan per filter, ANDed
// into one bit vector. Each scan is a pass across workers, every
// range evaluating the filter into its own words
// (byteslice.Filter.Words), so the bit vector is the same at any
// worker count.
func (b *Bound) Select(ctx context.Context, workers int) (Selection, error) {
	sel := Selection{n: b.Table.N}
	pass := pipeerr.Pass{Stage: pipeerr.StageFilter, Round: -1, Site: faultinject.FilterScan, Align: filterAlign, MinRows: pipeerr.BlockRows}
	for i, f := range b.Query.Filters {
		var flt *byteslice.Filter
		var err error
		if f.Between {
			flt, err = b.filters[i].FilterBetween(f.Lo, f.Hi)
		} else {
			flt, err = b.filters[i].Filter(f.Op, f.Const)
		}
		if err != nil {
			return Selection{}, err
		}
		bv := byteslice.NewBitVector(sel.n)
		err = pass.Rows(ctx, sel.n, workers, func(lo, hi int) {
			wlo, whi := wordRange(lo, hi)
			flt.Words(bv, wlo, whi)
		})
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

// Rows lists the selected row ids in ascending order, or is nil when
// no filter ran: every row is selected, and a massage.Source reads a
// nil list as every row in order. The list is built in two passes over
// the same ranges of words across workers: the first counts each
// range's rows, the second fills each range's slice of the list, which
// starts at the counts of the ranges before it.
func (s Selection) Rows(ctx context.Context, workers int) ([]uint32, error) {
	if s.bv == nil {
		return nil, nil
	}
	pass := pipeerr.Pass{Stage: pipeerr.StageFilter, Round: -1, Site: faultinject.RowList, Align: filterAlign, MinRows: pipeerr.BlockRows}
	bounds, w := pass.Split(s.n, workers)
	counts := make([]int, len(bounds)-1)
	err := pass.Ranges(ctx, w, len(counts), func(_ context.Context, i int) error {
		counts[i] = s.bv.CountWords(wordRange(bounds[i], bounds[i+1]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	starts := prefixSums(counts)
	out := make([]uint32, starts[len(starts)-1])
	err = pass.Ranges(ctx, w, len(counts), func(_ context.Context, i int) error {
		lo, hi := wordRange(bounds[i], bounds[i+1])
		s.bv.FillRows(out[starts[i]:starts[i+1]], lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// prefixSums returns the running totals of counts after 0:
// sums[i] = counts[0] + … + counts[i−1], one more entry than counts.
func prefixSums(counts []int) []int {
	sums := make([]int, len(counts)+1)
	for i, c := range counts {
		sums[i+1] = sums[i] + c
	}
	return sums
}

// sources describes every Sort column as a ByteSlice-backed sort input
// over the selected rows: the massage reads each segment's bits from
// the byte planes they lie in, and no code array is built for them.
func (b *Bound) sources(rows []uint32) []massage.Input {
	inputs := make([]massage.Input, len(b.Cols))
	for i, bs := range b.Cols {
		inputs[i] = massage.Input{Width: bs.Width, Desc: b.Sort[i].Desc, Source: &massage.Source{Column: bs, Rows: rows}}
	}
	return inputs
}

// payload is the aggregate column the sort carries in place of the
// oids (mcsort.Options.Payload), or nil. It is carried when a group
// query sums a column of at most 32 bits under a sort that is not cut
// (limitGroups, SortCut's, is 0), under a plan of any round count: a
// sum does not care about the order inside a group, so the aggregate
// reads the sorted payload in order instead of the column at every
// sorted position, and a plan of more than one round swaps the codes
// in at its last lookup, after which no pass reads an oid. A cut sort
// keeps its oids: the fill would read every selected row, the sweep
// reads only the surviving groups' rows.
func (b *Bound) payload(rows []uint32, limitGroups int) *massage.Source {
	if b.Query.Window != nil || b.agg == nil || b.agg.Width > 32 || limitGroups != 0 {
		return nil
	}
	return &massage.Source{Column: b.agg, Rows: rows}
}

// MaterializeSortInputsContext runs a query's filter stage and gathers
// every sort column's codes for the selected rows with ByteSlice
// lookups, returning them as multi-column-sort inputs (in clause order,
// with the window order column appended for window queries).
// RunContext never materialises its sort columns; plan-space
// experiments use this to execute many plans over identical inputs.
// The gathers are chunked across workers when workers > 1 and poll the
// context like RunContext's.
func MaterializeSortInputsContext(ctx context.Context, t *table.Table, q Query, workers int) ([]massage.Input, error) {
	b, err := Bind(t, q)
	if err != nil {
		return nil, err
	}
	sel, err := b.Select(ctx, workers)
	if err != nil {
		return nil, err
	}
	rows, err := sel.Rows(ctx, workers)
	if err != nil {
		return nil, err
	}
	inputs := b.sources(rows)
	for i, in := range inputs {
		codes := make([]uint64, in.Len())
		if err := gatherParallel(ctx, codes, in.Source, workers); err != nil {
			return nil, err
		}
		inputs[i] = massage.Input{Codes: codes, Width: in.Width, Desc: in.Desc}
	}
	return inputs, nil
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
// ranges must stay contiguous in the sorted output, and rankPage reads
// the partition as the concatenated key's leading bits).
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

// ChoosePlan is Choose for rows selected rows of the bound query, over
// the table's precomputed column statistics (as in any DBMS). The
// coordinator pins its plan with it over the full table's filtered row
// count: the pin is the single node's choice, not a replica of it.
func (b *Bound) ChoosePlan(ctx context.Context, rows int, opts Options) (planner.Choice, time.Duration, error) {
	return Choose(ctx, b.Query, b.widths(), func() (costmodel.Stats, error) { return b.stats(rows) }, opts)
}

func (b *Bound) widths() []int {
	widths := make([]int, len(b.Cols))
	for i, bs := range b.Cols {
		widths[i] = bs.Width
	}
	return widths
}

// stats are the table's statistics of the sort columns, over rows rows.
func (b *Bound) stats(rows int) (costmodel.Stats, error) {
	st := costmodel.Stats{N: rows}
	for _, sc := range b.Sort {
		cs, err := b.Table.Stats(sc.Name)
		if err != nil {
			return costmodel.Stats{}, err
		}
		st.Cols = append(st.Cols, cs)
	}
	return st, nil
}

// Choose fixes the column order and massage plan for sorting q's sort
// columns of the given widths: opts.PlanOverride verbatim (a window's
// must keep its ORDER BY column last), column-at-a-time with massaging
// off, otherwise the plan search over NewSearch(q, stats(), opts) —
// stats is called only then, and only the search is timed.
func Choose(ctx context.Context, q Query, widths []int, stats func() (costmodel.Stats, error), opts Options) (planner.Choice, time.Duration, error) {
	m := len(widths)
	if opts.PlanOverride != nil {
		if q.Window != nil {
			if err := ValidateColOrder(opts.PlanOverride.ColOrder, m, q.Kind, true); err != nil {
				return planner.Choice{}, 0, err
			}
		}
		return *opts.PlanOverride, 0, nil
	}
	if len(opts.FixedColOrder) > 0 {
		if err := ValidateColOrder(opts.FixedColOrder, m, q.Kind, q.Window != nil); err != nil {
			return planner.Choice{}, 0, err
		}
	}
	if !opts.Massaging {
		order, ws := make([]int, m), make([]int, m)
		for i := range order {
			order[i] = i
			if len(opts.FixedColOrder) > 0 {
				order[i] = opts.FixedColOrder[i]
			}
			ws[i] = widths[order[i]]
		}
		return planner.Choice{ColOrder: order, Plan: plan.ColumnAtATime(ws)}, 0, nil
	}
	st, err := stats()
	if err != nil {
		return planner.Choice{}, 0, err
	}
	start := time.Now()
	choice, err := planner.ROGAContext(ctx, NewSearch(q, st, opts))
	if err != nil {
		return planner.Choice{}, 0, err
	}
	return choice, time.Since(start), nil
}

// NewSearch is the production plan search for q's sort columns over st
// (clause order): opts.Model (nil: costmodel.Builtin()), Rho, MaxPlans
// and FixedColOrder, a window's ORDER BY column pinned last, and the
// LIMIT cut (docs/topk.md), which sets only the round widths: a free
// column order is the unlimited search's, so a page is the result sliced.
func NewSearch(q Query, st costmodel.Stats, opts Options) *planner.Search {
	model := opts.Model
	if model == nil {
		model = costmodel.Builtin()
	}
	st.LimitRows, st.LimitGroups = SortCut(q, opts.Limit, opts.Offset)
	s := &planner.Search{Model: model, Stats: st, Kind: q.Kind, Rho: opts.Rho, MaxPlans: opts.MaxPlans,
		FixedOrder: opts.FixedColOrder}
	if q.Window != nil {
		s.FixedTail = 1 // the window's ORDER BY column stays last
	}
	return s
}

// PlanKey is the plan-cache key of the bound query cut at (limit,
// offset) with the column order pinned to pin (nil: free): exactly what
// NewSearch reads from the query — the table and its row count (the
// filters stand for the selected count), the clause kind, the sort
// columns (their statistics, widths and the window's fixed tail), the
// SortCut and the pinned order. The model, Rho and MaxPlans are fixed
// for a serving process, and workers never reach the search, so a
// cached choice is shared by every request whose search it answers.
func (b *Bound) PlanKey(limit *int, offset int, pin []int) string {
	t, q := b.Table, b.Query
	rows, groups := SortCut(q, limit, offset)
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%s|n=%d|k=%d|cut=%d/%d|pin=%v", t.Name, t.N, q.Kind, rows, groups, pin)
	for i, sc := range b.Sort {
		tag := "c"
		if i == len(q.SortCols) {
			tag = "win" // the window's ORDER BY column
		}
		fmt.Fprintf(&sb, "|%s=%s/%d/%t", tag, sc.Name, b.Cols[i].Width, sc.Desc)
	}
	for _, f := range q.Filters {
		if f.Between {
			fmt.Fprintf(&sb, "|f=%s between %d %d", f.Col, f.Lo, f.Hi)
		} else {
			fmt.Fprintf(&sb, "|f=%s %d %d", f.Col, f.Op, f.Const)
		}
	}
	return sb.String()
}

// SortColumns sorts inputs (q's sort columns in clause order) under
// choice: the budget's stage 2 degrades opts.Workers until the plan's
// rounds fit opts.MaxBytes, then mcsort runs the inputs in
// choice.ColOrder, cut at q's SortCut. It also returns the workers used.
func SortColumns(ctx context.Context, q Query, inputs []massage.Input, choice planner.Choice, opts Options) (*mcsort.Result, int, error) {
	return sortColumns(ctx, q, inputs, choice, opts, nil)
}

// sortColumns is SortColumns carrying payload through the sort in
// place of the oids (mcsort.Options.Payload) when it is non-nil.
func sortColumns(ctx context.Context, q Query, inputs []massage.Input, choice planner.Choice, opts Options, payload *massage.Source) (*mcsort.Result, int, error) {
	rows := 0
	if len(inputs) > 0 {
		rows = inputs[0].Len()
	}
	workers, err := budgetWorkers(opts.Workers, opts.MaxBytes, rows, len(choice.Plan.Rounds))
	if err != nil {
		return nil, 0, q.wrap(err)
	}
	ordered := make([]massage.Input, len(inputs))
	for i, c := range choice.ColOrder {
		ordered[i] = inputs[c]
	}
	mopts := mcsort.Options{Workers: workers, SortParams: opts.SortParams, Payload: payload}
	mopts.LimitRows, mopts.LimitGroups = SortCut(q, opts.Limit, opts.Offset)
	mres, err := mcsort.ExecuteContext(ctx, ordered, choice.Plan, mopts)
	return mres, workers, err
}

// rankCheckGroups is the number of groups the window ranking visits
// between context polls.
const rankCheckGroups = 1 << 12

// partitionBits is the width of a window's partition key: every sort
// column's but the ORDER BY column's, which stays last in any column
// order (ValidateColOrder), so the partition is the leading bits of the
// sorted concatenated key.
func (b *Bound) partitionBits() int {
	bits := 0
	for _, bs := range b.Cols[:len(b.Cols)-1] {
		bits += bs.Width
	}
	return bits
}

// rankPage assigns RANK() OVER (PARTITION BY … ORDER BY …) to positions
// [lo, hi) of a window query's sorted order, whose partition is the
// first partBits bits of the concatenated key. The ORDER BY column is
// last, so mres.Groups — runs equal on every sort column — are the runs
// of tied ranks, and a row's rank is its group's start minus its
// partition's start plus one (rank counts rows, not distinct values).
// A partition begins only at a group start, so the partition test runs
// once per group, on the sorted keys (mcsort.Result.SamePrefix), and
// the walk back from lo to its partition's first row steps over groups
// (partitionStart): ranks only look back to the partition start, so a
// page needs nothing before it, and a truncated sort's prefix ranks
// exactly. Groups may number as many as rows, so both loops poll ctx
// every rankCheckGroups groups.
func rankPage(ctx context.Context, mres *mcsort.Result, partBits, lo, hi int) ([]uint32, error) {
	ranks := make([]uint32, hi-lo)
	if lo == hi {
		return ranks, nil
	}
	groups := mres.Groups
	g := sort.Search(len(groups)-1, func(g int) bool { return int(groups[g+1]) > lo })
	part, err := partitionStart(ctx, mres, g, partBits)
	if err != nil {
		return nil, err
	}
	for g0 := g; int(groups[g]) < hi; g++ {
		if (g-g0)&(rankCheckGroups-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		start, end := int(groups[g]), min(int(groups[g+1]), hi)
		if start > lo && !mres.SamePrefix(start-1, start, partBits) {
			part = start
		}
		rank := uint32(start - part + 1)
		for i := max(start, lo); i < end; i++ {
			ranks[i-lo] = rank
		}
	}
	return ranks, nil
}

// partitionStart returns the position of the first row of the partition
// holding group g of a window query's sorted order: it walks back over
// the groups while each starts in the same partition as the one before
// it. The walk is data-bound (one partition may span every row), so it
// polls ctx every rankCheckGroups groups.
func partitionStart(ctx context.Context, mres *mcsort.Result, g, partBits int) (int, error) {
	groups := mres.Groups
	for k := g; k > 0; k-- {
		if (g-k)&(rankCheckGroups-1) == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if !mres.SamePrefix(int(groups[k-1]), int(groups[k]), partBits) {
			return int(groups[k]), nil
		}
	}
	return 0, nil
}
