package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/mergesort"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/testutil"
)

// The oracle-differential truncation battery: every LIMIT/OFFSET result
// must be byte-identical to the unlimited result sliced to
// [Offset, Offset+Limit), at every worker count, for duplicate-free and
// duplicate-heavy data. The server-side battery (internal/server)
// covers the cached-vs-uncached dimension over the same semantics; this
// one covers the engine/mcsort/mergesort layers directly.

// limitSweepK returns the K sweep of the battery relative to n. -1 is
// the sentinel for "no limit" (offset-only slicing).
func limitSweepK(n int) []int {
	return []int{-1, 0, 1, 100, n - 1, n, n + 7}
}

// makeDupTable builds a table whose sort columns carry the given
// duplicate fraction (dup = 1 - distinct/n).
func makeDupTable(t *testing.T, n int, dup float64, seed int64) *table.Table {
	t.Helper()
	distinct := int(float64(n)*(1-dup) + 0.5)
	if distinct < 1 {
		distinct = 1
	}
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New("t", n)
	add := func(name string, width, card int) {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(rng.Intn(card))
		}
		if err := tbl.Add(column.FromCodes(name, width, codes)); err != nil {
			t.Fatal(err)
		}
	}
	maxCard := 1 << 11
	if distinct > maxCard {
		distinct = maxCard
	}
	add("s1", 11, distinct)
	add("s2", 11, distinct)
	add("v", 8, 200)
	add("f", 6, 50)
	return tbl
}

// limitQueries are the clause shapes the battery sweeps: a grouped
// aggregate with a filter, a plain ORDER BY, an unfiltered window rank
// (so row-rank truncation bites below n), and an aggregate-ordered
// group-by (which truncates by slicing only — the sort cannot cut what
// the aggregate reorders).
func limitQueries() []Query {
	return []Query{
		{
			ID:       "lim-groupby",
			Kind:     planner.GroupBy,
			SortCols: []SortCol{{Name: "s1"}, {Name: "s2"}},
			Agg:      &Agg{Kind: Sum, Col: "v"},
			Filters:  []Filter{{Col: "f", Between: true, Lo: 5, Hi: 44}},
		},
		{
			ID:       "lim-orderby",
			Kind:     planner.OrderBy,
			SortCols: []SortCol{{Name: "s1", Desc: true}, {Name: "s2"}},
		},
		{
			ID:       "lim-window",
			Kind:     planner.PartitionBy,
			SortCols: []SortCol{{Name: "s1"}},
			Window:   &Window{OrderCol: "v"},
		},
		{
			ID:         "lim-orderbyagg",
			Kind:       planner.GroupBy,
			SortCols:   []SortCol{{Name: "s1"}},
			Agg:        &Agg{Kind: Count},
			OrderByAgg: true,
		},
	}
}

// keepEveryRow returns q with one more filter, on its first sort
// column, that every row passes: its selection lists all n rows, where
// no filter lists none.
func keepEveryRow(q Query) Query {
	q.Filters = append(append([]Filter(nil), q.Filters...), Filter{Col: q.SortCols[0].Name, Op: byteslice.GE, Const: 0})
	return q
}

// limitOptions keeps the plan choice deterministic (counted search
// budget, no wall clock).
func limitOptions(workers int) Options {
	return Options{
		Massaging: true,
		Model:     costmodel.Builtin(),
		Rho:       -1,
		MaxPlans:  64,
		Workers:   workers,
	}
}

// sliceOracle applies the documented LIMIT/OFFSET semantics to an
// unlimited result: entries [off, off+limit) of the ranked rows for
// window queries, of the group table otherwise. limit == nil slices
// [off:].
func sliceOracle(full *Result, window bool, limit *int, off int) *Result {
	cut := func(n int) (int, int) {
		lo := off
		if lo > n {
			lo = n
		}
		hi := n
		if limit != nil && lo+*limit < hi {
			hi = lo + *limit
		}
		return lo, hi
	}
	out := &Result{Rows: full.Rows}
	if window {
		lo, hi := cut(len(full.Ranks))
		out.Ranks = full.Ranks[lo:hi]
		out.RowOids = full.RowOids[lo:hi]
		return out
	}
	lo, hi := cut(len(full.GroupKeys))
	out.GroupKeys = full.GroupKeys[lo:hi]
	out.Aggregates = full.Aggregates[lo:hi]
	return out
}

// canonResult renders the query-data fields of a result with nil and
// empty slices identified, so a truncated run and a sliced oracle
// compare byte-for-byte.
func canonResult(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rows=%d\n", res.Rows)
	for _, gk := range res.GroupKeys {
		fmt.Fprintf(&sb, "g %v\n", gk)
	}
	for _, a := range res.Aggregates {
		fmt.Fprintf(&sb, "a %d\n", a)
	}
	for i := range res.Ranks {
		fmt.Fprintf(&sb, "r %d %d\n", res.Ranks[i], res.RowOids[i])
	}
	return sb.String()
}

// TestLimitOffsetOracleDifferential is the engine-layer battery:
// workers {1,2,4,8} x K {nil,0,1,100,n-1,n,n+7} x offsets {0,3,n} x
// duplicate fractions {0,0.99}, every combination compared against
// full-sort-then-slice, and an unfiltered query also against itself
// under a filter that keeps every row; then one table past
// mergesort.ParallelMinRows, where the truncated queries run the top-K
// select and sort in parallel.
func TestLimitOffsetOracleDifferential(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 1200
	for _, dup := range []float64{0, 0.99} {
		tbl := makeDupTable(t, n, dup, 42)
		for _, q := range limitQueries() {
			q := q
			t.Run(fmt.Sprintf("dup=%g/%s", dup, q.ID), func(t *testing.T) {
				full, err := run(tbl, q, limitOptions(1))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					for _, k := range limitSweepK(n) {
						for _, off := range []int{0, 3, n} {
							opts := limitOptions(workers)
							opts.Offset = off
							var limit *int
							if k >= 0 {
								kk := k
								limit = &kk
								opts.Limit = &kk
							}
							got, err := run(tbl, q, opts)
							if err != nil {
								t.Fatalf("workers=%d k=%d off=%d: %v", workers, k, off, err)
							}
							want := sliceOracle(full, q.Window != nil, limit, off)
							if g, w := canonResult(got), canonResult(want); g != w {
								t.Fatalf("workers=%d k=%d off=%d: diverges from full-sort-then-slice\ngot:\n%s\nwant:\n%s",
									workers, k, off, g, w)
							}
							if len(q.Filters) > 0 {
								continue
							}
							kept, err := run(tbl, keepEveryRow(q), opts)
							if err != nil {
								t.Fatalf("workers=%d k=%d off=%d keep-all: %v", workers, k, off, err)
							}
							if g, w := canonResult(kept), canonResult(got); g != w {
								t.Fatalf("workers=%d k=%d off=%d: a filter keeping every row diverges from no filter", workers, k, off)
							}
						}
					}
				}
			})
		}
	}
	checkLargeLimits(t)
}

// checkLargeLimits runs the battery's queries over 2·ParallelMinRows
// nearly-all-tied rows at two workers, K {100, n/2}: each must match
// full-sort-then-slice, and together they must reach the top-K select
// (mergesort.topk_sorts) and the parallel radix sort
// (mergesort.parallel_sorts).
func checkLargeLimits(t *testing.T) {
	const n = 2 * mergesort.ParallelMinRows
	tbl := makeDupTable(t, n, 0.99, 42)
	bumps := testutil.Bumps(func() {
		for _, q := range limitQueries() {
			full, err := run(tbl, q, limitOptions(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{100, n / 2} {
				opts := limitOptions(2)
				opts.Limit = &k
				got, err := run(tbl, q, opts)
				if err != nil {
					t.Fatalf("n=%d %s k=%d: %v", n, q.ID, k, err)
				}
				if g, w := canonResult(got), canonResult(sliceOracle(full, q.Window != nil, &k, 0)); g != w {
					t.Fatalf("n=%d %s k=%d: diverges from full-sort-then-slice", n, q.ID, k)
				}
			}
		}
	}, "mergesort.topk_sorts", "mergesort.parallel_sorts")
	if bumps[0] == 0 || bumps[1] == 0 {
		t.Fatalf("n=%d: %d top-K selects, %d parallel sorts; want both", n, bumps[0], bumps[1])
	}
}

// TestLimitValidation pins the error paths: negative limit, negative
// offset, and an offset+limit sum that overflows int.
func TestLimitValidation(t *testing.T) {
	tbl := makeDupTable(t, 100, 0, 1)
	q := limitQueries()[1]
	neg := -1
	if _, err := run(tbl, q, Options{Limit: &neg}); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := run(tbl, q, Options{Offset: -5}); err == nil {
		t.Error("negative offset accepted")
	}
	huge := int(^uint(0) >> 1)
	if _, err := run(tbl, q, Options{Limit: &huge, Offset: 10}); err == nil {
		t.Error("overflowing offset+limit accepted")
	}
}

// pageTable builds a table for the page battery: "one" is constant (a
// single partition across all rows), "few" has 7 values (partitions of
// about n/7 rows), "v" is the ORDER BY column with ties, "f" a filter
// column.
func pageTable(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New("pages", n)
	for _, c := range []struct {
		name        string
		width, card int
	}{{"one", 3, 1}, {"few", 5, 7}, {"v", 10, 300}, {"f", 6, 50}} {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(rng.Intn(c.card))
		}
		if err := tbl.Add(column.FromCodes(c.name, c.width, codes)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestLimitPagesMidPartition is the page battery of the truncated window
// path, which ranks only from the page's partition start: pages that
// start inside a partition (a single partition across all rows
// included), at and past the last row, over an unfiltered and a
// filtered selection, at every worker count — each byte-identical to
// the unlimited ranking sliced.
func TestLimitPagesMidPartition(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 3000
	tbl := pageTable(t, n, 38)
	filter := []Filter{{Col: "f", Between: true, Lo: 3, Hi: 40}}
	for _, q := range []Query{
		{ID: "one", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "one"}}, Window: &Window{OrderCol: "v", Desc: true}},
		{ID: "few", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "few"}}, Window: &Window{OrderCol: "v"}},
		{ID: "few-filtered", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "few"}}, Window: &Window{OrderCol: "v"}, Filters: filter},
	} {
		full, err := run(tbl, q, limitOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		rows := full.Rows
		for _, workers := range []int{1, 2, 4} {
			for _, off := range []int{1, 37, 99, 101, rows / 2, rows - 3, rows, rows + 9} {
				for _, k := range []int{1, 10, 100} {
					k := k
					opts := limitOptions(workers)
					opts.Limit, opts.Offset = &k, off
					got, err := run(tbl, q, opts)
					if err != nil {
						t.Fatalf("%s workers=%d k=%d off=%d: %v", q.ID, workers, k, off, err)
					}
					want := sliceOracle(full, true, &k, off)
					if g, w := canonResult(got), canonResult(want); g != w {
						t.Fatalf("%s workers=%d k=%d off=%d: diverges from full-sort-then-slice\ngot:\n%s\nwant:\n%s",
							q.ID, workers, k, off, g, w)
					}
				}
			}
		}
	}
}
