package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/planner"
)

// evalFilter is the per-row reference predicate.
func evalFilter(f Filter, v uint64) bool {
	if f.Between {
		return f.Lo <= v && v <= f.Hi
	}
	switch f.Op {
	case byteslice.LT:
		return v < f.Const
	case byteslice.LE:
		return v <= f.Const
	case byteslice.GT:
		return v > f.Const
	case byteslice.GE:
		return v >= f.Const
	case byteslice.EQ:
		return v == f.Const
	default:
		return v != f.Const
	}
}

// TestSelectMatchesPredicates holds the one filters → selection pass to
// per-row predicate evaluation, in both forms its callers consume: the
// row list (RunContext, MaterializeSortInputsContext) and the bare
// count (the coordinator's pin search).
func TestSelectMatchesPredicates(t *testing.T) {
	tbl := makeTable(t, 3000, 31)
	cases := map[string][]Filter{
		"no filter":   nil,
		"one":         {{Col: "f", Op: byteslice.LT, Const: 25}},
		"between":     {{Col: "b", Between: true, Lo: 40, Hi: 200}},
		"conjunction": {{Col: "f", Op: byteslice.GE, Const: 10}, {Col: "b", Between: true, Lo: 0, Hi: 150}, {Col: "a", Op: byteslice.NEQ, Const: 3}},
		"empty":       {{Col: "f", Op: byteslice.EQ, Const: 63}}, // f < 50
	}
	ctx := context.Background()
	for name, filters := range cases {
		var want []uint32
		fcs := make([]*column.Column, len(filters))
		for i, f := range filters {
			fcs[i] = mustCol(tbl, f.Col)
		}
		for r := 0; r < tbl.N; r++ {
			keep := true
			for i, f := range filters {
				keep = keep && evalFilter(f, fcs[i].Codes[r])
			}
			if keep {
				want = append(want, uint32(r))
			}
		}
		if (name == "empty") != (len(want) == 0) {
			t.Fatalf("%s: reference keeps %d rows", name, len(want))
		}
		b, err := Bind(tbl, Query{SortCols: []SortCol{{Name: "a"}}, Filters: filters})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := b.Select(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sel.Rows(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Count() != len(want) || len(rows) != len(want) {
			t.Fatalf("%s: Count %d, %d rows, want %d", name, sel.Count(), len(rows), len(want))
		}
		for i := range want {
			if rows[i] != want[i] {
				t.Fatalf("%s: row %d is %d, want %d", name, i, rows[i], want[i])
			}
		}
	}
}

// TestUnknownColumnFails: a misspelt column in any position is the typed
// caller's mistake, and the message carries no empty-ID prefix.
func TestUnknownColumnFails(t *testing.T) {
	tbl := makeTable(t, 100, 32)
	ok := []SortCol{{Name: "a"}}
	for name, q := range map[string]Query{
		"sort":      {SortCols: []SortCol{{Name: "a"}, {Name: "nosuch"}}},
		"with id":   {ID: "bad", SortCols: []SortCol{{Name: "nosuch"}}},
		"window":    {Kind: planner.PartitionBy, SortCols: ok, Window: &Window{OrderCol: "nosuch"}},
		"filter":    {SortCols: ok, Filters: []Filter{{Col: "nosuch", Op: byteslice.EQ}}},
		"aggregate": {Kind: planner.GroupBy, SortCols: ok, Agg: &Agg{Kind: Sum, Col: "nosuch"}},
	} {
		_, err := run(tbl, q, Options{})
		if !errors.Is(err, ErrUnknownColumn) {
			t.Errorf("%s: err = %v, want ErrUnknownColumn", name, err)
		} else if msg := err.Error(); msg[0] == ':' {
			t.Errorf("%s: message %q starts with an empty query id", name, msg)
		}
	}
	// Count ignores its column, as documented on Agg.
	if _, err := run(tbl, Query{Kind: planner.GroupBy, SortCols: ok, Agg: &Agg{Kind: Count, Col: "nosuch"}}, Options{}); err != nil {
		t.Errorf("count with an ignored column: %v", err)
	}
}

// lim makes limit pointers readable in table literals.
func lim(v int) *int { return &v }

// TestOutputWindow holds the one [offset, offset+limit) clamp to a
// naive walk over n entries.
func TestOutputWindow(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		limit  *int
		offset int
	}{
		{"everything", 10, nil, 0},
		{"offset only", 10, nil, 4},
		{"offset at n", 10, nil, 10},
		{"offset past n", 10, lim(3), 25},
		{"limit 0", 10, lim(0), 2},
		{"inside", 10, lim(3), 4},
		{"limit past the end", 10, lim(50), 7},
		{"limit ends at n", 10, lim(3), 7},
		{"empty input", 0, lim(5), 0},
	}
	for _, tc := range cases {
		wantLo, wantHi := -1, -1
		for i := 0; i < tc.n; i++ {
			if i >= tc.offset && (tc.limit == nil || i < tc.offset+*tc.limit) {
				if wantLo < 0 {
					wantLo = i
				}
				wantHi = i + 1
			}
		}
		lo, hi := OutputWindow(tc.n, tc.limit, tc.offset)
		if lo < 0 || hi < lo || hi > tc.n {
			t.Fatalf("%s: [%d,%d) is not a sub-range of [0,%d)", tc.name, lo, hi, tc.n)
		}
		if wantLo < 0 {
			if lo != hi {
				t.Errorf("%s: [%d,%d), want an empty window", tc.name, lo, hi)
			}
		} else if lo != wantLo || hi != wantHi {
			t.Errorf("%s: [%d,%d), want [%d,%d)", tc.name, lo, hi, wantLo, wantHi)
		}
	}
}

// TestSortCut pins the LIMIT → (rows | groups) mapping per query shape.
func TestSortCut(t *testing.T) {
	window := Query{Kind: planner.PartitionBy, Window: &Window{OrderCol: "v"}}
	groups := Query{Kind: planner.GroupBy, Agg: &Agg{Kind: Count}}
	byAgg := Query{Kind: planner.GroupBy, Agg: &Agg{Kind: Count}, OrderByAgg: true}
	cases := []struct {
		name                 string
		q                    Query
		limit                *int
		offset               int
		wantRows, wantGroups int
	}{
		{"window", window, lim(10), 5, 15, 0},
		{"groups", groups, lim(10), 5, 0, 15},
		{"order by", Query{Kind: planner.OrderBy}, lim(7), 0, 0, 7},
		{"order by aggregate sorts every group", byAgg, lim(10), 5, 0, 0},
		{"no limit", window, nil, 5, 0, 0},
		{"limit 0 sorts nothing", groups, lim(0), 5, 0, 0},
	}
	for _, tc := range cases {
		if rows, groups := SortCut(tc.q, tc.limit, tc.offset); rows != tc.wantRows || groups != tc.wantGroups {
			t.Errorf("%s: (%d rows, %d groups), want (%d, %d)", tc.name, rows, groups, tc.wantRows, tc.wantGroups)
		}
	}
}

// TestNewSearchCarriesTheCut pins the search every caller runs under a
// LIMIT (RunContext, the coordinator's pin, mcs.Sort, mcsplan): the
// statistics carry the clause's sort cut — ranked rows for a window,
// groups otherwise, none without a limit — and a window keeps its ORDER
// BY column last.
func TestNewSearchCarriesTheCut(t *testing.T) {
	st := costmodel.Stats{N: 1 << 18}
	for _, c := range []struct {
		kind                planner.ClauseKind
		limit, offset       int
		wantRows, wantGroup int
		wantTail            int
	}{
		{planner.PartitionBy, 100, 0, 100, 0, 1},
		{planner.PartitionBy, 100, 7, 107, 0, 1},
		{planner.PartitionBy, 0, 7, 0, 0, 1},
		{planner.GroupBy, 100, 7, 0, 107, 0},
		{planner.OrderBy, 10, 0, 0, 10, 0},
		{planner.OrderBy, 0, 0, 0, 0, 0},
	} {
		s := NewSearch(windowQuery(c.kind), st, Options{Rho: -1, Limit: &c.limit, Offset: c.offset})
		if s.Stats.LimitRows != c.wantRows || s.Stats.LimitGroups != c.wantGroup || s.FixedTail != c.wantTail {
			t.Errorf("%v limit %d offset %d: cut rows %d groups %d, tail %d; want %d, %d, %d", c.kind, c.limit, c.offset,
				s.Stats.LimitRows, s.Stats.LimitGroups, s.FixedTail, c.wantRows, c.wantGroup, c.wantTail)
		}
		if s.Stats.N != st.N || s.Kind != c.kind {
			t.Errorf("%v: search over %d rows, kind %v", c.kind, s.Stats.N, s.Kind)
		}
	}
}

// TestNewSearchPicksTheTruncatedPlan runs the search of
// `mcsplan -widths 12,17,20 -clause partitionby -rows 262144 -limit 100`:
// priced with the cut, the pick differs from the unlimited one, and the
// window's ORDER BY column stays last.
func TestNewSearchPicksTheTruncatedPlan(t *testing.T) {
	widths := []int{12, 17, 20}
	rng := rand.New(rand.NewSource(1))
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		cols[i] = datagen.Uniform(rng, 1<<16, w, 1<<13).Codes
	}
	st := costmodel.CollectStats(cols, widths)
	st.N = 1 << 18
	q := windowQuery(planner.PartitionBy)
	full, err := planner.ROGAContext(context.Background(), NewSearch(q, st, Options{Rho: -1}))
	if err != nil {
		t.Fatal(err)
	}
	limit := 100
	top, err := planner.ROGAContext(context.Background(), NewSearch(q, st, Options{Rho: -1, Limit: &limit}))
	if err != nil {
		t.Fatal(err)
	}
	if top.ColOrder[2] != 2 {
		t.Errorf("window ORDER BY column moved: order %v", top.ColOrder)
	}
	if top.Plan.String() == full.Plan.String() {
		t.Errorf("the limit did not change the pick: %v", top.Plan)
	}
}

// TestPlanKeyIsTheSearch holds the plan-cache key to what the search
// reads: over limits, offsets, workers, ORDER BY <aggregate>, a filter
// and a pinned order, two requests get equal keys exactly when
// NewSearch builds equal searches for them.
func TestPlanKeyIsTheSearch(t *testing.T) {
	tbl := makeTable(t, 3000, 31)
	window := Query{Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}}, Window: &Window{OrderCol: "b", Desc: true}}
	group := Query{Kind: planner.GroupBy, SortCols: []SortCol{{Name: "a"}, {Name: "c"}}, Agg: &Agg{Kind: Sum, Col: "v"}}
	byAgg, filtered := group, group
	byAgg.OrderByAgg = true
	filtered.Filters = []Filter{{Col: "f", Op: byteslice.LT, Const: 25}}

	model := costmodel.Builtin()
	var labels, keys []string
	var searches []*planner.Search
	for qi, q := range []Query{window, group, byAgg, filtered} {
		b, err := Bind(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := b.Select(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st, err := b.stats(sel.Count())
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range [][]int{nil, {0, 1}} {
			for _, limit := range []int{-1, 0, 5, 8} { // -1: no limit
				for _, offset := range []int{0, 3} {
					for _, workers := range []int{1, 4} {
						opts := Options{Model: model, Rho: -1, MaxPlans: 8192, Workers: workers,
							Offset: offset, FixedColOrder: pin}
						if limit >= 0 {
							opts.Limit = &limit
						}
						labels = append(labels, fmt.Sprintf("query %d pin %v limit %d offset %d workers %d", qi, pin, limit, offset, workers))
						keys = append(keys, b.PlanKey(opts.Limit, offset, pin))
						searches = append(searches, NewSearch(q, st, opts))
					}
				}
			}
		}
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if same := reflect.DeepEqual(searches[i], searches[j]); (keys[i] == keys[j]) != same {
				t.Errorf("%s and %s: equal keys %v, equal searches %v", labels[i], labels[j], keys[i] == keys[j], same)
			}
		}
	}
}

// TestOrderKeyIsTheOrderSearch holds the order-entry key to the first
// half of a split search: over the grid of TestPlanKeyIsTheSearch plus
// a window and an ORDER BY free to split, OrderKey answers exactly when
// the search splits, and two splitting requests get equal keys exactly
// when their unlimited order searches are equal.
func TestOrderKeyIsTheOrderSearch(t *testing.T) {
	tbl := makeTable(t, 3000, 31)
	window := Query{Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}}, Window: &Window{OrderCol: "b", Desc: true}}
	window2 := Query{Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}, {Name: "c"}}, Window: &Window{OrderCol: "b", Desc: true}}
	group := Query{Kind: planner.GroupBy, SortCols: []SortCol{{Name: "a"}, {Name: "c"}}, Agg: &Agg{Kind: Sum, Col: "v"}}
	orderBy := Query{Kind: planner.OrderBy, SortCols: []SortCol{{Name: "a"}, {Name: "c"}}}
	byAgg, filtered := group, group
	byAgg.OrderByAgg = true
	filtered.Filters = []Filter{{Col: "f", Op: byteslice.LT, Const: 25}}

	model := costmodel.Builtin()
	var labels, keys []string
	var orderSearches []*planner.Search
	for qi, q := range []Query{window, window2, group, orderBy, byAgg, filtered} {
		b, err := Bind(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := b.Select(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st, err := b.stats(sel.Count())
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range [][]int{nil, {0, 1}} {
			for _, limit := range []int{-1, 0, 5, 8} { // -1: no limit
				for _, offset := range []int{0, 3} {
					opts := Options{Model: model, Rho: -1, MaxPlans: 8192, Offset: offset, FixedColOrder: pin}
					if limit >= 0 {
						opts.Limit = &limit
					}
					label := fmt.Sprintf("query %d pin %v limit %d offset %d", qi, pin, limit, offset)
					s := NewSearch(q, st, opts)
					key, ok := b.OrderKey(opts.Limit, offset, pin)
					if ok != s.Splits() {
						t.Errorf("%s: OrderKey ok %v, search splits %v", label, ok, s.Splits())
					}
					if !ok {
						continue
					}
					unlimited := *s
					unlimited.Stats.LimitRows, unlimited.Stats.LimitGroups = 0, 0
					labels, keys, orderSearches = append(labels, label), append(keys, key), append(orderSearches, &unlimited)
				}
			}
		}
	}
	if len(keys) == 0 {
		t.Fatal("no request split its search")
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if same := reflect.DeepEqual(orderSearches[i], orderSearches[j]); (keys[i] == keys[j]) != same {
				t.Errorf("%s and %s: equal keys %v, equal order searches %v", labels[i], labels[j], keys[i] == keys[j], same)
			}
		}
	}
}

// windowQuery is a query of clause kind with no columns, a window for
// PartitionBy: all NewSearch reads of a query.
func windowQuery(kind planner.ClauseKind) Query {
	q := Query{Kind: kind}
	if kind == planner.PartitionBy {
		q.Window = &Window{}
	}
	return q
}
