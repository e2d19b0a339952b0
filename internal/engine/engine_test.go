package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/testutil"
)

// run executes a query under context.Background(): most tests exercise
// query results, not cancellation.
func run(t *table.Table, q Query, opts Options) (*Result, error) {
	return RunContext(context.Background(), t, q, opts)
}

// mustCol decodes a column that the test itself added; reference
// helpers below have no *testing.T, so a missing column panics.
func mustCol(tbl *table.Table, name string) *column.Column {
	c, err := testutil.Column(tbl.ByteSlice(name))
	if err != nil {
		panic(err)
	}
	return c
}

// makeTable builds a small table with known columns.
func makeTable(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New("t", n)
	add := func(name string, width, distinct int) {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(rng.Intn(distinct))
		}
		if err := tbl.Add(column.FromCodes(name, width, codes)); err != nil {
			t.Fatal(err)
		}
	}
	add("a", 4, 10)
	add("b", 9, 300)
	add("c", 17, 5000)
	add("v", 8, 200)
	add("f", 6, 50)
	return tbl
}

// refGroups computes the reference grouped aggregate with maps.
func refGroups(tbl *table.Table, q Query) map[string]uint64 {
	out := map[string]uint64{}
	counts := map[string]uint64{}
	n := tbl.N
	cols := make([]*column.Column, len(q.SortCols))
	for i, sc := range q.SortCols {
		cols[i] = mustCol(tbl, sc.Name)
	}
	var aggCol *column.Column
	if q.Agg != nil && q.Agg.Kind != Count {
		aggCol = mustCol(tbl, q.Agg.Col)
	}
	var filterCol *column.Column
	if len(q.Filters) > 0 {
		filterCol = mustCol(tbl, q.Filters[0].Col)
	}
	for r := 0; r < n; r++ {
		if filterCol != nil {
			f := q.Filters[0]
			v := filterCol.Codes[r]
			ok := false
			switch f.Op {
			case byteslice.LT:
				ok = v < f.Const
			case byteslice.GE:
				ok = v >= f.Const
			case byteslice.EQ:
				ok = v == f.Const
			}
			if f.Between {
				ok = v >= f.Lo && v <= f.Hi
			}
			if !ok {
				continue
			}
		}
		key := ""
		for _, c := range cols {
			key += fmt.Sprintf("%d|", c.Codes[r])
		}
		counts[key]++
		if aggCol != nil {
			out[key] += aggCol.Codes[r]
		} else {
			out[key]++
		}
	}
	if q.Agg != nil && q.Agg.Kind == Avg {
		for k := range out {
			out[k] /= counts[k]
		}
	}
	return out
}

func keyOf(keys []uint64) string {
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%d|", k)
	}
	return s
}

func runBoth(t *testing.T, tbl *table.Table, q Query) (*Result, *Result) {
	t.Helper()
	off, err := run(tbl, q, Options{Massaging: false})
	if err != nil {
		t.Fatal(err)
	}
	on, err := run(tbl, q, Options{Massaging: true, Model: costmodel.Builtin(), Rho: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return off, on
}

// TestGroupByAggregateMatchesReference: every aggregate kind, at worker
// counts on both sides of the parallel gather and aggregation passes,
// over a uniform grouping and a skewed one (one group holds at least
// half the rows), with massaging off and on, equals refGroups. Group
// keys are in clause order whatever column order the plan chose, and
// each group's key slice is capped at its own columns: appending to it
// must not write into the next group's keys.
func TestGroupByAggregateMatchesReference(t *testing.T) {
	tbl := makeTable(t, 5000, 1)
	rng := rand.New(rand.NewSource(11))
	skew := make([]uint64, tbl.N)
	for i := range skew {
		if i%2 == 1 {
			skew[i] = uint64(rng.Intn(32))
		}
	}
	if err := tbl.Add(column.FromCodes("s", 5, skew)); err != nil {
		t.Fatal(err)
	}
	groupings := map[string][]SortCol{
		"uniform": {{Name: "a"}, {Name: "b"}},
		"skewed":  {{Name: "s"}},
	}
	for gname, cols := range groupings {
		for _, agg := range []Agg{{Kind: Count}, {Kind: Sum, Col: "v"}, {Kind: Avg, Col: "c"}} {
			q := Query{ID: "g1", Kind: planner.GroupBy, SortCols: cols, Agg: &agg}
			want := refGroups(tbl, q)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, opts := range []Options{
					{Workers: workers},
					{Massaging: true, Model: costmodel.Builtin(), Rho: 0.5, Workers: workers},
				} {
					name := fmt.Sprintf("%s/agg%d/workers=%d/massaging=%v", gname, agg.Kind, workers, opts.Massaging)
					res, err := run(tbl, q, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(res.GroupKeys) != len(want) {
						t.Fatalf("%s: %d groups, want %d", name, len(res.GroupKeys), len(want))
					}
					for g, keys := range res.GroupKeys {
						if k := keyOf(keys); want[k] != res.Aggregates[g] {
							t.Fatalf("%s: group %s: agg %d, want %d", name, k, res.Aggregates[g], want[k])
						}
					}
					for g := 0; g+1 < len(res.GroupKeys); g++ {
						next := keyOf(res.GroupKeys[g+1])
						_ = append(res.GroupKeys[g], 1)
						if got := keyOf(res.GroupKeys[g+1]); got != next {
							t.Fatalf("%s: appending to group %d's keys changed group %d's from %s to %s", name, g, g+1, next, got)
						}
					}
				}
			}
		}
	}
}

// TestKeepAllFilterMatchesNoFilter: a query whose selection lists every
// row gives the same bytes as the query with no filter, whose selection
// lists none — every clause kind, aggregate columns of 8 and 40 bits
// (the wide one read in selection order), massaging off and on, at one
// and two workers.
func TestKeepAllFilterMatchesNoFilter(t *testing.T) {
	tbl := wideTable(t, 6000, 5)
	for _, q := range []Query{
		{ID: "gb-sum", Kind: planner.GroupBy, SortCols: []SortCol{{Name: "a"}, {Name: "b"}}, Agg: &Agg{Kind: Sum, Col: "v"}},
		{ID: "gb-avg-wide", Kind: planner.GroupBy, SortCols: []SortCol{{Name: "b"}, {Name: "a", Desc: true}}, Agg: &Agg{Kind: Avg, Col: "w"}},
		{ID: "gb-count-oba", Kind: planner.GroupBy, SortCols: []SortCol{{Name: "c"}}, Agg: &Agg{Kind: Count}, OrderByAgg: true},
		{ID: "ob", Kind: planner.OrderBy, SortCols: []SortCol{{Name: "c", Desc: true}, {Name: "a"}}},
		{ID: "win", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}}, Window: &Window{OrderCol: "c", Desc: true}},
	} {
		for _, workers := range []int{1, 2} {
			for _, opts := range []Options{{Workers: workers}, {Massaging: true, Model: costmodel.Builtin(), Rho: -1, MaxPlans: 64, Workers: workers}} {
				label := fmt.Sprintf("%s workers=%d massaging=%v", q.ID, workers, opts.Massaging)
				none, err := run(tbl, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				all, err := run(tbl, keepEveryRow(q), opts)
				if err != nil {
					t.Fatalf("%s keep-all: %v", label, err)
				}
				if none.Rows != tbl.N || canonResult(all) != canonResult(none) {
					t.Fatalf("%s: a filter keeping every row diverges from no filter (%d and %d rows)", label, all.Rows, none.Rows)
				}
			}
		}
	}
}

func TestGroupByWithFilter(t *testing.T) {
	tbl := makeTable(t, 8000, 2)
	q := Query{
		ID:       "g2",
		Kind:     planner.GroupBy,
		SortCols: []SortCol{{Name: "b"}, {Name: "c"}},
		Filters:  []Filter{{Col: "f", Op: byteslice.LT, Const: 25}},
		Agg:      &Agg{Kind: Count},
	}
	want := refGroups(tbl, q)
	off, on := runBoth(t, tbl, q)
	for _, res := range []*Result{off, on} {
		if len(res.GroupKeys) != len(want) {
			t.Fatalf("%d groups, want %d", len(res.GroupKeys), len(want))
		}
		total := 0
		for g, keys := range res.GroupKeys {
			if want[keyOf(keys)] != res.Aggregates[g] {
				t.Fatalf("count mismatch for %v", keys)
			}
			total += int(res.Aggregates[g])
		}
		if total != res.Rows {
			t.Fatalf("counts sum to %d, rows %d", total, res.Rows)
		}
	}
}

func TestOrderByProducesSortedGroups(t *testing.T) {
	tbl := makeTable(t, 3000, 3)
	q := Query{
		ID:       "o1",
		Kind:     planner.OrderBy,
		SortCols: []SortCol{{Name: "a"}, {Name: "b", Desc: true}},
	}
	off, on := runBoth(t, tbl, q)
	for _, res := range []*Result{off, on} {
		// ORDER BY: group keys must be lexicographically ordered with b
		// descending within ties of a.
		for g := 1; g < len(res.GroupKeys); g++ {
			prev, cur := res.GroupKeys[g-1], res.GroupKeys[g]
			if prev[0] > cur[0] {
				t.Fatalf("a out of order at group %d", g)
			}
			if prev[0] == cur[0] && prev[1] < cur[1] {
				t.Fatalf("b not descending within a-tie at group %d", g)
			}
		}
	}
}

func TestOrderByAggDescending(t *testing.T) {
	tbl := makeTable(t, 4000, 4)
	q := Query{
		ID:         "oa",
		Kind:       planner.GroupBy,
		SortCols:   []SortCol{{Name: "a"}},
		Agg:        &Agg{Kind: Sum, Col: "v"},
		OrderByAgg: true,
	}
	off, on := runBoth(t, tbl, q)
	for _, res := range []*Result{off, on} {
		for g := 1; g < len(res.Aggregates); g++ {
			if res.Aggregates[g-1] < res.Aggregates[g] {
				t.Fatalf("aggregates not descending at %d", g)
			}
		}
	}
}

// refRanks computes RANK() OVER (PARTITION BY p ORDER BY o) naively.
func refRanks(tbl *table.Table, part []string, orderCol string, filter *Filter) map[uint32]uint32 {
	n := tbl.N
	type row struct {
		oid uint32
		p   []uint64
		o   uint64
	}
	var rowsArr []row
	oc := mustCol(tbl, orderCol)
	var fc *column.Column
	if filter != nil {
		fc = mustCol(tbl, filter.Col)
	}
	pcs := make([]*column.Column, len(part))
	for i, name := range part {
		pcs[i] = mustCol(tbl, name)
	}
	for r := 0; r < n; r++ {
		if fc != nil && fc.Codes[r] != filter.Const {
			continue
		}
		p := make([]uint64, len(part))
		for i, pc := range pcs {
			p[i] = pc.Codes[r]
		}
		rowsArr = append(rowsArr, row{oid: uint32(r), p: p, o: oc.Codes[r]})
	}
	sort.SliceStable(rowsArr, func(a, b int) bool {
		for i := range rowsArr[a].p {
			if rowsArr[a].p[i] != rowsArr[b].p[i] {
				return rowsArr[a].p[i] < rowsArr[b].p[i]
			}
		}
		return rowsArr[a].o < rowsArr[b].o
	})
	ranks := map[uint32]uint32{}
	for i := 0; i < len(rowsArr); i++ {
		samePart := i > 0
		if samePart {
			for c := range rowsArr[i].p {
				if rowsArr[i].p[c] != rowsArr[i-1].p[c] {
					samePart = false
					break
				}
			}
		}
		if !samePart {
			ranks[rowsArr[i].oid] = 1
		} else if rowsArr[i].o == rowsArr[i-1].o {
			ranks[rowsArr[i].oid] = ranks[rowsArr[i-1].oid]
		} else {
			// RANK counts preceding rows in the partition.
			count := uint32(1)
			for j := i - 1; j >= 0; j-- {
				same := true
				for c := range rowsArr[i].p {
					if rowsArr[j].p[c] != rowsArr[i].p[c] {
						same = false
						break
					}
				}
				if !same {
					break
				}
				count++
			}
			ranks[rowsArr[i].oid] = count
		}
	}
	return ranks
}

func TestWindowRankMatchesReference(t *testing.T) {
	tbl := makeTable(t, 2000, 5)
	q := Query{
		ID:       "w1",
		Kind:     planner.PartitionBy,
		SortCols: []SortCol{{Name: "a"}, {Name: "f"}},
		Window:   &Window{OrderCol: "v"},
		Filters:  []Filter{{Col: "b", Op: byteslice.EQ, Const: 7}},
	}
	want := refRanks(tbl, []string{"a", "f"}, "v", &q.Filters[0])
	off, on := runBoth(t, tbl, q)
	for _, res := range []*Result{off, on} {
		if len(res.Ranks) != len(want) {
			t.Fatalf("rank count %d, want %d", len(res.Ranks), len(want))
		}
		for i, oid := range res.RowOids {
			if want[oid] != res.Ranks[i] {
				t.Fatalf("oid %d: rank %d, want %d", oid, res.Ranks[i], want[oid])
			}
		}
	}
}

func TestTimingBreakdownPopulated(t *testing.T) {
	tbl := makeTable(t, 20000, 6)
	q := Query{
		ID:       "t1",
		Kind:     planner.GroupBy,
		SortCols: []SortCol{{Name: "b"}, {Name: "c"}},
		Agg:      &Agg{Kind: Sum, Col: "v"},
	}
	res, err := run(tbl, q, Options{Massaging: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.MCS.Sort == 0 {
		t.Error("sort time not recorded")
	}
	if res.Timing.Total() < res.Timing.MCS.Total() {
		t.Error("total must include MCS")
	}
}

func TestEmptyFilterResult(t *testing.T) {
	tbl := makeTable(t, 1000, 7)
	q := Query{
		ID:       "e1",
		Kind:     planner.GroupBy,
		SortCols: []SortCol{{Name: "a"}},
		Filters:  []Filter{{Col: "f", Op: byteslice.EQ, Const: 63}}, // no rows: f < 50
		Agg:      &Agg{Kind: Count},
	}
	res, err := run(tbl, q, Options{Massaging: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 || len(res.GroupKeys) != 0 {
		t.Fatalf("rows=%d groups=%d, want 0", res.Rows, len(res.GroupKeys))
	}
}

// TestRowCut: the parallel aggregation's group ranges split the rows,
// not the groups, evenly — each interior bound is the group start
// nearest its row quantile — and cover every group exactly once.
func TestRowCut(t *testing.T) {
	for _, tc := range []struct {
		groups  []int32
		workers int
		want    []int
	}{
		{[]int32{0, 80, 90, 100}, 2, []int{0, 1, 3}},           // 80 is nearer 50 than 0
		{[]int32{0, 10, 20, 30, 40}, 2, []int{0, 2, 4}},        // an exact quantile
		{[]int32{0, 1, 2, 3, 100}, 2, []int{0, 3, 4}},          // 3 is nearer 50 than the end
		{[]int32{0, 100}, 4, []int{0, 1}},                      // one group: no interior cut
		{[]int32{0, 5, 60, 70, 80, 100}, 3, []int{0, 2, 3, 5}}, // quantiles 33 and 66
	} {
		if got := rowCut(tc.groups, tc.workers); !slices.Equal(got, tc.want) {
			t.Errorf("rowCut(%v, %d) = %v, want %v", tc.groups, tc.workers, got, tc.want)
		}
	}
}
