package colstore

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func mustAdd(t *testing.T, tbl *Table, c *Column) {
	t.Helper()
	if err := tbl.Add(c); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAndQueryEndToEnd(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(1))

	// Encode native values through the public encoders.
	regions := make([]string, n)
	amounts := make([]int64, n)
	names := []string{"apac", "emea", "latam", "na"}
	for i := 0; i < n; i++ {
		regions[i] = names[rng.Intn(len(names))]
		amounts[i] = int64(rng.Intn(1000))
	}
	regionCol, regionDict := EncodeStrings("region", regions)
	amountCol, _ := EncodeInts("amount", amounts)

	tbl := NewTable("sales", n)
	mustAdd(t, tbl, regionCol)
	mustAdd(t, tbl, amountCol)

	q := Query{
		ID:       "sum-by-region",
		Kind:     1, // GroupBy
		SortCols: []SortCol{{Name: "region"}},
		Agg:      &Agg{Kind: Sum, Col: "amount"},
	}
	res, err := Run(tbl, q, Options{Massaging: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroupKeys) != len(names) {
		t.Fatalf("groups = %d, want %d", len(res.GroupKeys), len(names))
	}
	// Aggregates must match a map-computed reference over *codes*.
	want := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		want[regionCol.Codes[i]] += amountCol.Codes[i]
	}
	for g, keys := range res.GroupKeys {
		if want[keys[0]] != res.Aggregates[g] {
			t.Errorf("region %s: sum %d, want %d",
				regionDict.Decode(keys[0]), res.Aggregates[g], want[keys[0]])
		}
	}
}

func TestFilterOpsExported(t *testing.T) {
	// The op constants must round-trip through the engine.
	const n = 800
	tbl := NewTable("t", n)
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = uint64(i % 100)
	}
	mustAdd(t, tbl, FromCodes("v", 7, codes))
	mustAdd(t, tbl, FromCodes("k", 7, codes))

	for _, c := range []struct {
		op   Op
		k    uint64
		want int
	}{
		{LT, 50, 400},
		{LE, 49, 400},
		{GE, 50, 400},
		{GT, 49, 400},
		{EQ, 7, 8},
		{NEQ, 7, 792},
	} {
		q := Query{
			ID:       "f",
			SortCols: []SortCol{{Name: "k"}},
			Filters:  []Filter{{Col: "v", Op: c.op, Const: c.k}},
		}
		res, err := Run(tbl, q, Options{Massaging: false})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != c.want {
			t.Errorf("op %v const %d: rows %d, want %d", c.op, c.k, res.Rows, c.want)
		}
	}
}

func TestDecimalEncoding(t *testing.T) {
	col, dict := EncodeDecimals("price", []float64{19.99, 5.00, 19.99}, 2)
	if col.Codes[0] != col.Codes[2] {
		t.Error("equal prices must share a code")
	}
	if dict.Decode(col.Codes[0]) != 1999 {
		t.Errorf("decoded %d, want 1999", dict.Decode(col.Codes[0]))
	}
}

// TestAddRefusesCodesWiderThanWidth: the ByteSlice layout keeps only a
// column's Width low bits, so a code wider than its width would group
// and sort as another code (4 in 2 bits as 0). Add refuses the column,
// naming it and the row, and a query on it then fails on the name.
func TestAddRefusesCodesWiderThanWidth(t *testing.T) {
	tbl := NewTable("t", 3)
	err := tbl.Add(FromCodes("a", 2, []uint64{4, 1, 2}))
	if err == nil || !strings.Contains(err.Error(), `column "a"`) || !strings.Contains(err.Error(), "row 0") {
		t.Fatalf("Add error = %v, want one naming column a and row 0", err)
	}
	q := Query{Kind: 1, SortCols: []SortCol{{Name: "a"}}} // GroupBy
	if res, err := Run(tbl, q, Options{}); err == nil {
		t.Errorf("grouping on the refused column returned keys %v", res.GroupKeys)
	}
}

// TestConcurrentQueriesOnFreshTable: a built table is immutable, so two
// queries may run on it at once before anything else has touched it —
// no registration or warm-up first. Run under -race.
func TestConcurrentQueriesOnFreshTable(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(2))
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(rng.Intn(1<<10)), uint64(rng.Intn(1<<12))
	}
	tbl := NewTable("fresh", n)
	mustAdd(t, tbl, FromCodes("a", 10, a))
	mustAdd(t, tbl, FromCodes("b", 12, b))
	q := Query{
		Kind:     1, // GroupBy
		SortCols: []SortCol{{Name: "a"}, {Name: "b", Desc: true}},
		Filters:  []Filter{{Col: "b", Op: GE, Const: 100}},
		Agg:      &Agg{Kind: Sum, Col: "b"},
	}
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(tbl, q, Options{Massaging: true})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(results[0].GroupKeys, results[1].GroupKeys) ||
		!slices.Equal(results[0].Aggregates, results[1].Aggregates) || len(results[0].GroupKeys) == 0 {
		t.Errorf("concurrent runs disagree: %d and %d groups", len(results[0].GroupKeys), len(results[1].GroupKeys))
	}
}
