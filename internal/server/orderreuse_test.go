package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/table"
	"repro/internal/testutil"
)

// The order entries' coherence battery: a paged query whose column
// order is free searches its order once, and every later page pins it
// and searches only the widths, yet plans exactly as a fresh clock-free
// search of that page would (planner.Search.Splits).

// pagedCuts are ten (limit, offset) cuts in a seeded shuffle. Their
// ends offset+limit differ, so no two share a plan entry: a GROUP BY's
// search, and a coordinator's shard sub-queries, read only the end.
func pagedCuts() [][2]int {
	cuts := [][2]int{{100, 0}, {100, 100}, {100, 300}, {50, 1000}, {1, 7},
		{250, 40}, {100, 2500}, {10, 20000}, {5, 4}, {400, 600}}
	rand.New(rand.NewSource(52)).Shuffle(len(cuts), func(i, j int) { cuts[i], cuts[j] = cuts[j], cuts[i] })
	return cuts
}

// pagedShapes are paged queries whose search splits: a window query, a
// GROUP BY and a filtered GROUP BY, each free to order at least two
// columns.
func pagedShapes(tbl *table.Table) []QueryRequest {
	group := QueryRequest{Table: tbl.Name, ID: "group", Kind: "groupby",
		SortCols: []SortColReq{{Name: "p_brand"}, {Name: "p_type"}, {Name: "supp_nation"}},
		Agg:      &AggReq{Kind: "sum", Col: "l_extendedprice"}}
	filtered := group
	filtered.ID = "filtered"
	filtered.Filters = []FilterReq{{Col: "p_size", Op: "neq", Const: 15}}
	return []QueryRequest{
		{Table: tbl.Name, ID: "window", Kind: "partitionby",
			SortCols: []SortColReq{{Name: "supp_nation"}, {Name: "cust_nation"}, {Name: "p_brand"}},
			Window:   &WindowReq{OrderCol: "l_extendedprice", Desc: true}},
		group, filtered,
	}
}

// cleanPlan runs req on the engine with no cache and no clock: the plan
// every served page must equal.
func cleanPlan(t *testing.T, tbl *table.Table, req QueryRequest) string {
	t.Helper()
	q, err := req.ToEngineQuery()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunContext(context.Background(), tbl, q, engine.Options{Massaging: true,
		Model: BuiltinModel(), Rho: -1, MaxPlans: 8192, Limit: req.Limit, Offset: req.Offset,
		FixedColOrder: req.ColOrder})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(res.Plan.String(), res.ColOrder)
}

// TestPagesReuseTheirOrder visits ten cuts of each paged shape on a
// cold server: each page misses its plan entry and plans like a fresh
// search, the first searches every order and files it, and every later
// page considers exactly one order, the cached one.
func TestPagesReuseTheirOrder(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 40000)
	for _, shape := range pagedShapes(tbl) {
		srv := newTestServer(t, Config{}, tbl)
		for i, cut := range pagedCuts() {
			req := shape
			req.Limit, req.Offset = &cut[0], cut[1]
			want := cleanPlan(t, tbl, req)
			var res *QueryResult
			var err error
			bumps := testutil.Bumps(func() { res, err = srv.Run(context.Background(), req) },
				"planner.orders_considered", "server.plancache_order_hits")
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s limit %d offset %d", shape.ID, cut[0], cut[1])
			if got := fmt.Sprint(res.Plan, res.ColOrder); got != want {
				t.Errorf("%s: served %s, a fresh search %s", label, got, want)
			}
			if hits, misses, _ := srv.PlanCache().Stats(); hits != 0 || misses != int64(i+1) {
				t.Errorf("%s: plan cache hits %d misses %d, want 0 and %d", label, hits, misses, i+1)
			}
			if i == 0 {
				if bumps[0] <= 1 || bumps[1] != 0 {
					t.Errorf("%s (first page): %d orders considered, %d order hits; want the full order search", label, bumps[0], bumps[1])
				}
			} else if bumps[0] != 1 || bumps[1] != 1 {
				t.Errorf("%s: %d orders considered, %d order hits; want 1 and 1", label, bumps[0], bumps[1])
			}
		}
		if n := srv.PlanCache().OrderLen(); n != 1 {
			t.Errorf("%s: %d order entries, want 1", shape.ID, n)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

// TestConcurrentPagesShareOneOrder runs the ten cuts of the window
// shape at once on a cold server: pages race to read and fill the one
// order entry, and each still plans like a fresh search.
func TestConcurrentPagesShareOneOrder(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 40000)
	shape := pagedShapes(tbl)[0]
	cuts := pagedCuts()
	reqs, wants := make([]QueryRequest, len(cuts)), make([]string, len(cuts))
	for i, cut := range cuts {
		reqs[i] = shape
		reqs[i].Limit, reqs[i].Offset = &cut[0], cut[1]
		wants[i] = cleanPlan(t, tbl, reqs[i])
	}
	srv := newTestServer(t, Config{}, tbl)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Run(context.Background(), reqs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprint(res.Plan, res.ColOrder); got != wants[i] {
				t.Errorf("offset %d: served %s, a fresh search %s", reqs[i].Offset, got, wants[i])
			}
		}()
	}
	wg.Wait()
	if n := srv.PlanCache().OrderLen(); n != 1 {
		t.Errorf("%d order entries, want 1", n)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestUnsplitSearchesTouchNoOrder runs two cuts of every query whose
// search does not split — an ORDER BY, a free prefix of one column, a
// caller's col_order, LIMIT 0 and ORDER BY <aggregate> — and requires
// that none reads or files an order entry.
func TestUnsplitSearchesTouchNoOrder(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 40000)
	shapes := pagedShapes(tbl)
	orderBy := QueryRequest{Table: tbl.Name, ID: "orderby", Kind: "orderby",
		SortCols: []SortColReq{{Name: "p_brand"}, {Name: "p_type"}, {Name: "supp_nation"}}}
	onePrefix := shapes[0]
	onePrefix.ID, onePrefix.SortCols = "window-one-prefix", shapes[0].SortCols[:1]
	pinned := shapes[1]
	pinned.ID, pinned.ColOrder = "pinned", []int{2, 0, 1}
	byAgg := shapes[1]
	byAgg.ID, byAgg.OrderByAgg = "by-agg", true
	limit0 := shapes[0]
	limit0.ID = "limit-0"
	srv := newTestServer(t, Config{}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	for _, req := range []QueryRequest{orderBy, onePrefix, pinned, limit0, byAgg} {
		for _, cut := range [][2]int{{100, 0}, {100, 100}} {
			if req.ID == limit0.ID {
				cut[0] = 0
			}
			req.Limit, req.Offset = &cut[0], cut[1]
			bumps := testutil.Bumps(func() {
				if _, err := srv.Run(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}, "server.plancache_order_hits")
			if n := srv.PlanCache().OrderLen(); n != 0 || bumps[0] != 0 {
				t.Errorf("%s limit %d offset %d: %d order entries, %d order hits; want none", req.ID, cut[0], cut[1], n, bumps[0])
			}
		}
	}
}
