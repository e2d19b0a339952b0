package engine

import (
	"sync"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/costmodel"
	"repro/internal/mergesort"
	"repro/internal/planner"
	"repro/internal/testutil"
)

// The engine must tolerate concurrent queries over one shared table:
// Run only reads the table, so N goroutines issuing queries — each with
// its own internal worker pool — must neither race (the CI -race job
// runs this) nor perturb each other's results. Each query runs four
// workers, and the table holds more than mergesort.ParallelMinRows rows,
// so the parallel sort, gather and aggregate paths all run concurrently
// with each other.
func TestConcurrentQueriesSharedTable(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := makeTable(t, 2*mergesort.ParallelMinRows, 31)
	queries := []Query{
		{
			ID:       "cg",
			Kind:     planner.GroupBy,
			SortCols: []SortCol{{Name: "a"}, {Name: "b"}},
			Agg:      &Agg{Kind: Sum, Col: "v"},
		},
		{
			ID:       "co",
			Kind:     planner.OrderBy,
			SortCols: []SortCol{{Name: "b"}, {Name: "c", Desc: true}},
		},
		{
			ID:       "cf",
			Kind:     planner.GroupBy,
			SortCols: []SortCol{{Name: "c"}},
			Filters:  []Filter{{Col: "f", Op: byteslice.LT, Const: 30}},
			Agg:      &Agg{Kind: Count},
		},
	}
	opts := Options{Massaging: true, Model: costmodel.Builtin(), Rho: 0.5, Workers: 4}

	// Sequential baselines, one per query.
	base := make([]*Result, len(queries))
	par := testutil.Bumps(func() {
		for i, q := range queries {
			res, err := run(tbl, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			base[i] = res
		}
	}, "mergesort.parallel_sorts")[0]
	if par == 0 {
		t.Fatal("no query sorted in parallel")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			want := base[g%len(queries)]
			res, err := run(tbl, q, opts)
			if err != nil {
				errs <- err
				return
			}
			if res.Rows != want.Rows || len(res.GroupKeys) != len(want.GroupKeys) {
				t.Errorf("goroutine %d (%s): shape differs from sequential run", g, q.ID)
				return
			}
			for i := range res.GroupKeys {
				for c := range res.GroupKeys[i] {
					if res.GroupKeys[i][c] != want.GroupKeys[i][c] {
						t.Errorf("goroutine %d (%s): group key %d diverges", g, q.ID, i)
						return
					}
				}
				if len(res.Aggregates) > 0 && res.Aggregates[i] != want.Aggregates[i] {
					t.Errorf("goroutine %d (%s): aggregate %d diverges", g, q.ID, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
