package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/planner"
	"repro/internal/table"
)

// run executes a query under context.Background(): most tests exercise
// query results, not cancellation.
func run(t *table.Table, q Query, opts Options) (*Result, error) {
	return RunContext(context.Background(), t, q, opts)
}

// mustCol fetches a column that the test itself added; reference
// helpers below have no *testing.T, so a missing column panics.
func mustCol(tbl *table.Table, name string) *column.Column {
	c, err := tbl.Col(name)
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

func TestGroupByAggregateMatchesReference(t *testing.T) {
	tbl := makeTable(t, 5000, 1)
	q := Query{
		ID:       "g1",
		Kind:     planner.GroupBy,
		SortCols: []SortCol{{Name: "a"}, {Name: "b"}},
		Agg:      &Agg{Kind: Sum, Col: "v"},
	}
	want := refGroups(tbl, q)
	off, on := runBoth(t, tbl, q)
	for _, res := range []*Result{off, on} {
		if len(res.GroupKeys) != len(want) {
			t.Fatalf("%d groups, want %d", len(res.GroupKeys), len(want))
		}
		for g, keys := range res.GroupKeys {
			// The engine may have permuted the sort columns; map back.
			orig := make([]uint64, len(keys))
			copy(orig, keys) // inputs order == clause order in GroupKeys
			k := keyOf(orig)
			if want[k] != res.Aggregates[g] {
				t.Fatalf("group %s: agg %d, want %d", k, res.Aggregates[g], want[k])
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
	for r := 0; r < n; r++ {
		if fc != nil && fc.Codes[r] != filter.Const {
			continue
		}
		p := make([]uint64, len(part))
		for i, name := range part {
			p[i] = mustCol(tbl, name).Codes[r]
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
		// The engine ranked through its array-backed accessor (materialized
		// codes by selection index). The coordinator's form — the same
		// sorted order as table oids, codes ByteSlice-looked-up by oid —
		// must give the same ranks.
		b, err := Bind(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		ranks, err := RankSorted(context.Background(), res.RowOids, len(b.Cols), func(oid uint32, dst []uint64) {
			for c, bs := range b.Cols {
				dst[c] = bs.Lookup(int(oid))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, oid := range res.RowOids {
			if ranks[i] != want[oid] {
				t.Fatalf("lookup-backed: oid %d: rank %d, want %d", oid, ranks[i], want[oid])
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
	if res.Timing.Materialize == 0 {
		t.Error("materialize time not recorded")
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
