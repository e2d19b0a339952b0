package workloads

import (
	"context"
	"sort"

	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/plan"
	"repro/internal/table"
)

// Q13Result is the outcome of the two-stage TPC-H Q13 pipeline:
// GROUP BY on a single attribute first, then a multi-column sort of the
// tiny derived (custdist, c_count) table — which is why multi-column
// sorting is an insignificant share of Q13's total time (Figure 1's one
// exception, discussed in Section 6.3).
type Q13Result struct {
	CCount   []uint64 // distinct order counts, in output order
	CustDist []uint64 // customers sharing that count
	// StageOne is the engine timing of the GROUP BY c_custkey stage.
	StageOne engine.Timing
	// MCS is the timing of the derived-table multi-column sort.
	MCS mcsort.Timings
	// MCSRows is the derived table's size (the sort's input rows).
	MCSRows int
}

// RunQ13Context executes the Q13 pipeline over the TPC-H WideTable,
// with cooperative cancellation threaded through both stages:
//
//	SELECT c_count, COUNT(*) AS custdist
//	FROM (SELECT c_custkey, COUNT(o_orderkey) FROM … GROUP BY c_custkey)
//	GROUP BY c_count ORDER BY custdist DESC, c_count DESC
func RunQ13Context(ctx context.Context, t *table.Table, massaging bool, opts engine.Options) (*Q13Result, error) {
	// Stage 1: GROUP BY c_custkey, counting rows per customer. This is
	// a single-column sort; massaging has nothing to combine.
	stage1 := engine.Query{
		ID:       "tpch.q13.stage1",
		SortCols: []engine.SortCol{{Name: "c_custkey"}},
		Agg:      &engine.Agg{Kind: engine.Count},
	}
	opts1 := opts
	opts1.Massaging = false
	r1, err := engine.RunContext(ctx, t, stage1, opts1)
	if err != nil {
		return nil, err
	}

	// Derived table: one row per distinct c_count value after the inner
	// grouping; custdist = number of customers per count. The counting
	// pass is O(customers), so it polls at the usual stride.
	counts := map[uint64]uint64{}
	for i, c := range r1.Aggregates {
		if i&(1<<14-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		counts[c]++
	}
	// Collect-then-sort so the derived rows (and with them Perm and
	// Groups downstream) do not inherit Go's randomized map order.
	cCount := make([]uint64, 0, len(counts))
	for c := range counts {
		cCount = append(cCount, c)
	}
	sort.Slice(cCount, func(i, j int) bool { return cCount[i] < cCount[j] })
	custDist := make([]uint64, len(cCount))
	var maxCount, maxDist uint64
	for i, c := range cCount {
		d := counts[c]
		custDist[i] = d
		if c > maxCount {
			maxCount = c
		}
		if d > maxDist {
			maxDist = d
		}
	}

	// Stage 2: ORDER BY custdist DESC, c_count DESC — the multi-column
	// sort of the query, on the derived rows.
	inputs := []massage.Input{
		{Codes: custDist, Width: column.WidthFor(int(maxDist) + 1), Desc: true},
		{Codes: cCount, Width: column.WidthFor(int(maxCount) + 1), Desc: true},
	}
	var p plan.Plan
	widths := []int{inputs[0].Width, inputs[1].Width}
	if massaging && widths[0]+widths[1] <= 64 {
		// The derived table is tiny; the stitch-all plan is optimal and
		// a full search would cost more than the sort.
		p = plan.FromWidths([]int{widths[0] + widths[1]})
	} else {
		p = plan.ColumnAtATime(widths)
	}
	mres, err := mcsort.ExecuteContext(ctx, inputs, p, mcsort.Options{SortParams: opts.SortParams})
	if err != nil {
		return nil, err
	}

	res := &Q13Result{
		CCount:   make([]uint64, len(cCount)),
		CustDist: make([]uint64, len(custDist)),
		StageOne: r1.Timing,
		MCS:      mres.Timings,
		MCSRows:  len(cCount),
	}
	for i, oid := range mres.Perm {
		res.CCount[i] = cCount[oid]
		res.CustDist[i] = custDist[oid]
	}
	return res, nil
}
