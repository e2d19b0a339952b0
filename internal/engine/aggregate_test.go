package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/testutil"
)

// sweepWidths are the aggregate column widths the sweep battery sums:
// one to four planes, which Gather decodes in one pass, and five to
// eight, which an unlimited query gathers in selection order instead.
var sweepWidths = []int{1, 6, 21, 32, 33, 40, 64}

// sweepTable builds a table grouped by g whose groups are sized against
// aggBlock: in sorted order aggBlock rows (a block edge on the group
// boundary), aggBlock−1 and aggBlock+1 (edges inside groups), aggBlock
// again (back on an edge) and one group over three blocks, then 2,500
// groups of 1–7 rows and aggBlock−1 and aggBlock+1 again at the end.
// Those rows have f = 0; noise more rows, f = 1, join random groups. The
// rows are shuffled, and column a<w> holds random w-bit codes for every
// width of sweepWidths.
func sweepTable(t testing.TB, noise int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{aggBlock, aggBlock - 1, aggBlock + 1, aggBlock, 3*aggBlock + 5}
	for len(sizes) < 2505 {
		sizes = append(sizes, 1+rng.Intn(7))
	}
	sizes = append(sizes, aggBlock-1, aggBlock+1)
	var g, f []uint64
	for v, size := range sizes {
		for i := 0; i < size; i++ {
			g, f = append(g, uint64(v)), append(f, 0)
		}
	}
	for i := 0; i < noise; i++ {
		g, f = append(g, uint64(rng.Intn(len(sizes)))), append(f, 1)
	}
	n := len(g)
	rng.Shuffle(n, func(i, j int) { g[i], g[j], f[i], f[j] = g[j], g[i], f[j], f[i] })
	tbl := table.New("sweep", n)
	cols := []*column.Column{column.FromCodes("g", 12, g), column.FromCodes("f", 1, f)}
	for _, w := range sweepWidths {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() >> uint(64-w)
		}
		cols = append(cols, column.FromCodes(fmt.Sprintf("a%d", w), w, codes))
	}
	for _, c := range cols {
		if err := tbl.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// sweepRef is the full sort then sum: the selected rows stably sorted
// by g, each run of equal g counted and summed (wrapping) in that order,
// then for OrderByAgg the groups stably sorted by descending aggregate.
func sweepRef(tbl *table.Table, q Query) *Result {
	g, f := mustCol(tbl, "g").Codes, mustCol(tbl, "f").Codes
	var vals []uint64
	if q.Agg.Kind != Count {
		vals = mustCol(tbl, q.Agg.Col).Codes
	}
	var rows []int
	for r := range g {
		if len(q.Filters) == 0 || f[r] == q.Filters[0].Const {
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return g[rows[i]] < g[rows[j]] })
	res := &Result{Rows: len(rows)}
	for lo := 0; lo < len(rows); {
		hi, acc := lo, uint64(0)
		for ; hi < len(rows) && g[rows[hi]] == g[rows[lo]]; hi++ {
			if vals != nil {
				acc += vals[rows[hi]]
			}
		}
		switch q.Agg.Kind {
		case Count:
			acc = uint64(hi - lo)
		case Avg:
			acc /= uint64(hi - lo)
		}
		res.GroupKeys = append(res.GroupKeys, []uint64{g[rows[lo]]})
		res.Aggregates = append(res.Aggregates, acc)
		lo = hi
	}
	if q.OrderByAgg {
		idx := make([]int, len(res.Aggregates))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return res.Aggregates[idx[i]] > res.Aggregates[idx[j]] })
		gk, ag := make([][]uint64, len(idx)), make([]uint64, len(idx))
		for i, j := range idx {
			gk[i], ag[i] = res.GroupKeys[j], res.Aggregates[j]
		}
		res.GroupKeys, res.Aggregates = gk, ag
	}
	return res
}

// TestAggregateSweepDifferential is the battery of the sorted-order
// aggregation: Sum and Avg over every width of sweepWidths, and Count,
// unfiltered (the identity selection: the sweep gathers through the
// permutation itself) and filtered (through the selected rows),
// unlimited, under LIMIT/OFFSET pages and under ORDER BY <aggregate>,
// at workers 1, 2 and 4, must equal sweepRef sliced to the page — under
// the searched plan, one round, and under a pinned two-round plan. Both
// carry an aggregate of up to 32 bits through a sort not cut at a group
// count (no LIMIT, or ORDER BY <aggregate>), the two-round plan swapping
// the codes in at its last lookup; the sweep sums the widths over 32
// bits, and every width under a LIMIT without ORDER BY <aggregate>.
func TestAggregateSweepDifferential(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	exact, noisy := sweepTable(t, 0, 51), sweepTable(t, 3000, 52)
	keep := []Filter{{Col: "f", Op: byteslice.EQ, Const: 0}}
	type page struct {
		limit *int
		off   int
	}
	pages := []page{{nil, 0}, {lim(1), 0}, {lim(2), 1}, {lim(3), 4}, {lim(100), 2}, {nil, 3}}
	var aggs []Agg
	for _, w := range sweepWidths {
		col := fmt.Sprintf("a%d", w)
		aggs = append(aggs, Agg{Kind: Sum, Col: col}, Agg{Kind: Avg, Col: col})
	}
	aggs = append(aggs, Agg{Kind: Count})
	for _, tc := range []struct {
		name    string
		tbl     *table.Table
		filters []Filter
	}{{"exact", exact, nil}, {"noisy", noisy, nil}, {"filtered", noisy, keep}} {
		for _, agg := range aggs {
			for _, byAgg := range []bool{false, true} {
				agg := agg
				q := Query{ID: "sweep", Kind: planner.GroupBy, SortCols: []SortCol{{Name: "g"}}, Filters: tc.filters, Agg: &agg, OrderByAgg: byAgg}
				ref := sweepRef(tc.tbl, q)
				for _, pl := range []struct {
					name string
					pin  *planner.Choice
				}{{"searched", nil}, {"two-round", override([]int{0}, 6, 6)}} {
					for _, workers := range []int{1, 2, 4} {
						for _, p := range pages {
							opts := limitOptions(workers)
							opts.Limit, opts.Offset, opts.PlanOverride = p.limit, p.off, pl.pin
							res, err := run(tc.tbl, q, opts)
							limit := "none"
							if p.limit != nil {
								limit = strconv.Itoa(*p.limit)
							}
							name := fmt.Sprintf("%s/agg%d(%s)/byagg=%v/plan=%s/workers=%d/limit=%s/offset=%d", tc.name, agg.Kind, agg.Col, byAgg, pl.name, workers, limit, p.off)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if got, want := canonResult(res), canonResult(sliceOracle(ref, false, p.limit, p.off)); got != want {
								t.Fatalf("%s: result differs from the full sort then sum\ngot:\n%.600s\nwant:\n%.600s", name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestAggregateAllocatesNoRowArray: summing an aggregate column of up
// to 32 bits allocates nothing per row, unlimited or truncated, at one
// worker or two — less than 1 B/row where the column gathered in
// selection order alone is 8 — while an unlimited query over a wider
// column still gathers that column.
func TestAggregateAllocatesNoRowArray(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(53))
	tbl := table.New("alloc", n)
	g, a21, a40 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range g {
		g[i], a21[i], a40[i] = uint64(rng.Intn(16)), rng.Uint64()>>43, rng.Uint64()>>24
	}
	for _, c := range []*column.Column{column.FromCodes("g", 4, g), column.FromCodes("a21", 21, a21), column.FromCodes("a40", 40, a40)} {
		if err := tbl.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		col       string
		limit     *int
		wantBytes func(uint64) bool
		want      string
	}{
		{"a21", nil, func(b uint64) bool { return b < n }, "< 1 B/row"},
		{"a21", lim(3), func(b uint64) bool { return b < n }, "< 1 B/row"},
		{"a40", nil, func(b uint64) bool { return b >= 8*n }, ">= 8 B/row"},
	} {
		for _, workers := range []int{1, 2} {
			q := Query{ID: "alloc", Kind: planner.GroupBy, SortCols: []SortCol{{Name: "g"}}, Agg: &Agg{Kind: Sum, Col: tc.col}}
			opts := Options{Workers: workers, Limit: tc.limit}
			b, err := Bind(tbl, q)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := b.Select(ctx, workers)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sel.Rows(ctx, workers)
			if err != nil {
				t.Fatal(err)
			}
			choice, _, err := b.ChoosePlan(ctx, sel.Count(), opts)
			if err != nil {
				t.Fatal(err)
			}
			_, limitGroups := SortCut(q, opts.Limit, opts.Offset)
			payload := b.payload(rows, limitGroups)
			mres, w, err := sortColumns(ctx, q, b.sources(rows), choice, opts, payload)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			res := &Result{Rows: sel.Count()}
			runtime.ReadMemStats(&before)
			err = aggregate(ctx, res, b, rows, mres, choice.ColOrder, w, payload != nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; !tc.wantBytes(got) {
				t.Errorf("%s limit=%v workers=%d: aggregate allocated %d B over %d rows, want %s", tc.col, tc.limit != nil, workers, got, n, tc.want)
			}
			if len(res.Aggregates) == 0 {
				t.Errorf("%s limit=%v workers=%d: no groups", tc.col, tc.limit != nil, workers)
			}
		}
	}
}

// TestUnfilteredRunAllocatesNoRowList: an unfiltered RunContext lists
// no selected rows. Against the same query under a filter that keeps
// every row — whose selection is the only difference — it allocates at
// least the 4 B/row of that list less: for a GROUP BY, and for an
// unlimited window query, whose row ids are then the permutation
// itself rather than a copy through the list.
func TestUnfilteredRunAllocatesNoRowList(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(59))
	tbl := table.New("rows", n)
	g, v := make([]uint64, n), make([]uint64, n)
	for i := range g {
		g[i], v[i] = uint64(rng.Intn(16)), uint64(rng.Intn(1<<12))
	}
	for _, c := range []*column.Column{column.FromCodes("g", 4, g), column.FromCodes("v", 12, v)} {
		if err := tbl.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		q    Query
		plan *planner.Choice
		want uint64 // bytes the row list costs the filtered run beyond the unfiltered
	}{
		{Query{ID: "gb", Kind: planner.GroupBy, SortCols: []SortCol{{Name: "g"}}, Agg: &Agg{Kind: Sum, Col: "v"}}, override([]int{0}, 4), 4 * n},
		{Query{ID: "win", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "g"}}, Window: &Window{OrderCol: "v"}}, override([]int{0, 1}, 16), 8 * n},
	} {
		opts := Options{Workers: 1, PlanOverride: tc.plan}
		alloc := func(q Query) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunContext(ctx, tbl, q, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		alloc(tc.q) // warm the pools and caches both runs share
		none, all := alloc(tc.q), alloc(keepEveryRow(tc.q))
		if none+tc.want > all {
			t.Errorf("%s: unfiltered run allocated %d B, keep-all run %d B: want at least %d B less", tc.q.ID, none, all, tc.want)
		}
	}
}

// TestAggCarriedPath pins which queries carry their aggregate through
// the sort (engine.agg_carried) under the plans their searches pick:
// of the benchmark workloads' shapes on their seeded tables, lib_ties —
// a one-round GROUP BY summing 21 bits — and lib_wide_unique — a
// two-round sort summing 6 bits — do, once per query, and lib_ties also
// under a LIMIT with ORDER BY <aggregate> (its sort is not cut), while
// lib_ties counting, lib_ties under a LIMIT (a sort cut at a group
// count), and the window shapes do not; on the sweep table, a 32-bit
// Sum is carried and a 33-bit one is not, under the searched plan (one
// round for its 12-bit grouping) and under a pinned two-round plan. A
// plan or rule change that takes either workload off the path fails
// here, not silently in the benchmark.
func TestAggCarriedPath(t *testing.T) {
	ctx := context.Background()
	carried := func(tbl *table.Table, q Query, opts Options) int64 {
		t.Helper()
		var err error
		n := testutil.Bumps(func() { _, err = RunContext(ctx, tbl, q, opts) }, "engine.agg_carried")[0]
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		return n
	}
	want := map[string]int64{"lib_ties": 1, "lib_wide_unique": 1}
	for _, s := range planFlipShapes() {
		opts := Options{Massaging: true, Rho: -1, MaxPlans: 8192, Workers: s.workers, Limit: s.limit, Offset: s.offset}
		tbl := planFlipTable(t, s.skew, s.shard)
		if got := carried(tbl, s.q, opts); got != want[s.name] {
			t.Errorf("%s: agg_carried moved by %d, want %d", s.name, got, want[s.name])
		}
		if s.name == "lib_ties" {
			count := s.q
			count.Agg = &Agg{Kind: Count}
			if got := carried(tbl, count, opts); got != 0 {
				t.Errorf("lib_ties counting: agg_carried moved by %d, want 0", got)
			}
			limited := opts
			limited.Limit = lim(50)
			if got := carried(tbl, s.q, limited); got != 0 {
				t.Errorf("lib_ties LIMIT 50: agg_carried moved by %d, want 0", got)
			}
			byAgg := s.q
			byAgg.OrderByAgg = true
			if got := carried(tbl, byAgg, limited); got != 1 {
				t.Errorf("lib_ties ORDER BY sum LIMIT 50: agg_carried moved by %d, want 1", got)
			}
		}
	}
	sweep := sweepTable(t, 0, 61)
	for col, want := range map[string]int64{"a32": 1, "a33": 0} {
		q := Query{ID: col, Kind: planner.GroupBy, SortCols: []SortCol{{Name: "g"}}, Agg: &Agg{Kind: Sum, Col: col}}
		if got := carried(sweep, q, limitOptions(2)); got != want {
			t.Errorf("sum of %s: agg_carried moved by %d, want %d", col, got, want)
		}
		twoRound := limitOptions(2)
		twoRound.PlanOverride = override([]int{0}, 6, 6)
		if got := carried(sweep, q, twoRound); got != want {
			t.Errorf("sum of %s under two rounds: agg_carried moved by %d, want %d", col, got, want)
		}
	}
}

// BenchmarkAggregate times the aggregation stage (Timing.Aggregate:
// group keys decoded from the sorted round keys, the aggregate column
// summed) of an unlimited GROUP BY at 2^19 rows and two workers, with
// the plan pinned to one round: a tied grouping (g zipf-skewed over
// 2^18 values) and a nearly unique one (u uniform over 2^17), each
// summing random codes of 6, 21, 32, 40 and 64 bits; and, in the
// two-round cells, each grouping's sum of 21 bits with the plan pinned
// to two rounds that split the grouping column. agg-ms is the median
// over the b.N runs. Columns of up to 32 bits ride through the sort as
// its payload, so their sums read the sorted payload, and the fill
// that read the column is booked in the massage phase — in the carry
// itself under one round, in an array of its own that the last lookup
// reads under two; columns over 32 bits take the selection-order
// gather, inside agg-ms.
// fill-ms is that massage-phase share: the median over the runs of the
// massage time less that of the grouping's count query (no column
// read), run untimed after each; about 0 over 32 bits, so agg-ms +
// fill-ms prices the aggregation's whole read.
func BenchmarkAggregate(b *testing.B) {
	const rows = 1 << 19
	rng := rand.New(rand.NewSource(1))
	tbl := table.New("agg", rows)
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<18-1)
	g, u := make([]uint64, rows), make([]uint64, rows)
	for i := range g {
		g[i], u[i] = zipf.Uint64(), uint64(rng.Intn(1<<17))
	}
	cols := []*column.Column{column.FromCodes("g", 18, g), column.FromCodes("u", 17, u)}
	widths := []int{6, 21, 32, 40, 64}
	for _, w := range widths {
		codes := make([]uint64, rows)
		for i := range codes {
			codes[i] = rng.Uint64() >> uint(64-w)
		}
		cols = append(cols, column.FromCodes(fmt.Sprintf("a%d", w), w, codes))
	}
	for _, c := range cols {
		if err := tbl.Add(c); err != nil {
			b.Fatal(err)
		}
	}
	for _, grouping := range []struct{ name, col string }{{"tied", "g"}, {"unique", "u"}} {
		bs, err := tbl.ByteSlice(grouping.col)
		if err != nil {
			b.Fatal(err)
		}
		count := Query{ID: "agg", Kind: planner.GroupBy, SortCols: []SortCol{{Name: grouping.col}}, Agg: &Agg{Kind: Count}}
		type cell struct {
			name   string
			width  int
			choice *planner.Choice
		}
		var cells []cell
		for _, w := range widths {
			cells = append(cells, cell{fmt.Sprintf("%s/width=%d", grouping.name, w), w, override([]int{0}, bs.Width)})
		}
		cells = append(cells, cell{fmt.Sprintf("%s/two-round/width=21", grouping.name), 21, override([]int{0}, bs.Width/2, bs.Width-bs.Width/2)})
		for _, cell := range cells {
			choice := cell.choice
			q := Query{ID: "agg", Kind: planner.GroupBy, SortCols: []SortCol{{Name: grouping.col}}, Agg: &Agg{Kind: Sum, Col: fmt.Sprintf("a%d", cell.width)}}
			b.Run(cell.name, func(b *testing.B) {
				times, fills := make([]time.Duration, b.N), make([]time.Duration, b.N)
				groups := 0
				for i := range times {
					res, err := run(tbl, q, Options{PlanOverride: choice, Workers: 2})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					base, err := run(tbl, count, Options{PlanOverride: choice, Workers: 2})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					times[i], fills[i], groups = res.Timing.Aggregate, res.Timing.MCS.Massage-base.Timing.MCS.Massage, len(res.Aggregates)
				}
				slices.Sort(times)
				slices.Sort(fills)
				b.ReportMetric(float64(times[len(times)/2].Nanoseconds())/1e6, "agg-ms")
				b.ReportMetric(float64(fills[len(fills)/2].Nanoseconds())/1e6, "fill-ms")
				b.ReportMetric(float64(groups), "groups")
			})
		}
	}
}
