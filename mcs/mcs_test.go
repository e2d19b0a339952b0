package mcs

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/planner"
)

func twoColumns(n int, seed int64) ([]Column, []uint64, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = uint64(rng.Intn(1 << 10))
		b[i] = uint64(rng.Intn(1 << 13))
	}
	return []Column{
		{Codes: a, Width: 10},
		{Codes: b, Width: 17},
	}, a, b
}

func TestSortMatchesReference(t *testing.T) {
	const n = 5000
	cols, a, b := twoColumns(n, 1)
	res, err := Sort(cols, &Options{Model: costmodel.Builtin()})
	if err != nil {
		t.Fatal(err)
	}
	// Reference order.
	ref := make([]uint32, n)
	for i := range ref {
		ref[i] = uint32(i)
	}
	sort.SliceStable(ref, func(x, y int) bool {
		if a[ref[x]] != a[ref[y]] {
			return a[ref[x]] < a[ref[y]]
		}
		return b[ref[x]] < b[ref[y]]
	})
	for i := range res.Perm {
		if a[res.Perm[i]] != a[ref[i]] || b[res.Perm[i]] != b[ref[i]] {
			t.Fatalf("order differs from reference at %d", i)
		}
	}
}

func TestSortMassagingOffUsesP0(t *testing.T) {
	cols, _, _ := twoColumns(1000, 2)
	res, err := Sort(cols, &Options{Massaging: Off})
	if err != nil {
		t.Fatal(err)
	}
	want := ColumnAtATime([]int{10, 17})
	if !res.Plan.Equal(want) {
		t.Errorf("plan %v, want %v", res.Plan, want)
	}
	if res.Estimated != 0 {
		t.Errorf("estimate should be 0 without search, got %v", res.Estimated)
	}
}

func TestSortWithExplicitPlan(t *testing.T) {
	cols, _, _ := twoColumns(1000, 3)
	p := Plan{Rounds: []Round{{Width: 27, Bank: 32}}}
	res, err := Sort(cols, &Options{Plan: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Equal(p) {
		t.Errorf("plan %v, want %v", res.Plan, p)
	}
}

func TestSortDescColumns(t *testing.T) {
	n := 2000
	cols, a, b := twoColumns(n, 4)
	cols[1].Desc = true
	res, err := Sort(cols, &Options{Model: costmodel.Builtin()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		pa, pb := res.Perm[i-1], res.Perm[i]
		if a[pa] > a[pb] {
			t.Fatalf("column a out of order at %d", i)
		}
		if a[pa] == a[pb] && b[pa] < b[pb] {
			t.Fatalf("column b not descending within tie at %d", i)
		}
	}
}

func TestSortValidation(t *testing.T) {
	if _, err := Sort(nil, nil); err == nil {
		t.Error("no columns accepted")
	}
	bad := []Column{{Codes: []uint64{1}, Width: 0}}
	if _, err := Sort(bad, nil); err == nil {
		t.Error("zero width accepted")
	}
	mismatch := []Column{
		{Codes: []uint64{1, 2}, Width: 4},
		{Codes: []uint64{1}, Width: 4},
	}
	if _, err := Sort(mismatch, nil); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

func TestGroupBoundaries(t *testing.T) {
	cols := []Column{{Codes: []uint64{3, 1, 3, 1, 2}, Width: 2}}
	res, err := Sort(cols, &Options{Massaging: Off})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 { // values 1, 2, 3 -> 3 groups + sentinel
		t.Fatalf("groups = %v", res.Groups)
	}
	if res.Groups[0] != 0 || res.Groups[3] != 5 {
		t.Fatalf("bad boundaries: %v", res.Groups)
	}
}

func TestFreeOrderClause(t *testing.T) {
	cols, _, _ := twoColumns(3000, 5)
	res, err := Sort(cols, &Options{Clause: GroupBy, Model: costmodel.Builtin()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ColOrder) != 2 {
		t.Fatalf("ColOrder = %v", res.ColOrder)
	}
	// Whatever order was chosen, the groups must partition all rows.
	if res.Groups[len(res.Groups)-1] != 3000 {
		t.Error("groups do not span all rows")
	}
}

// TestSortRefusesCodesWiderThanWidth: a code that does not fit its
// column's width would sort by its low bits, so Sort refuses it, naming
// the column and the row, with massaging on or off.
func TestSortRefusesCodesWiderThanWidth(t *testing.T) {
	cols := []Column{{Codes: []uint64{1, 2, 3}, Width: 2}, {Codes: []uint64{3, 4, 1}, Width: 2}}
	for _, o := range []*Options{nil, {Massaging: Off}} {
		res, err := Sort(cols, o)
		if err == nil || !strings.Contains(err.Error(), `column "1"`) || !strings.Contains(err.Error(), "row 1") {
			t.Errorf("Sort error = %v, want one naming column 1 and row 1", err)
		}
		if res != nil {
			t.Errorf("Sort returned perm %v beside the error", res.Perm)
		}
	}
}

// TestSortPlansAsTheEngine pins that Sort plans with the engine's
// search: under OrderBy and GroupBy, its Plan and ColOrder are ROGA's
// over engine.NewSearch of the same statistics.
func TestSortPlansAsTheEngine(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(9))
	widths, distinct := []int{30, 4, 36}, []int{8192, 16, 1 << 16}
	cols := make([]Column, len(widths))
	codes := make([][]uint64, len(widths))
	for i, w := range widths {
		codes[i] = datagen.Uniform(rng, n, w, distinct[i]).Codes
		cols[i] = Column{Codes: codes[i], Width: w}
	}
	st := costmodel.CollectStats(codes, widths)
	for _, clause := range []Clause{OrderBy, GroupBy} {
		res, err := Sort(cols, &Options{Clause: clause, Rho: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := planner.ROGAContext(context.Background(), engine.NewSearch(engine.Query{Kind: clause}, st, engine.Options{Rho: -1}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Plan.Equal(want.Plan) || !slices.Equal(res.ColOrder, want.ColOrder) {
			t.Errorf("%v: Sort chose %v order %v, the engine's search %v order %v", clause, res.Plan, res.ColOrder, want.Plan, want.ColOrder)
		}
	}
}
