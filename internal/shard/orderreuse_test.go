package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/testutil"
)

// The coordinator's half of the order entries' coherence battery
// (internal/server's TestPagesReuseTheirOrder): a paged query's pin
// search finds its column order once, and every later page pins it and
// searches only the widths, yet pins exactly the plan a fresh clock-free
// single-node search of that page chooses.

// pinCuts are ten (limit, offset) cuts in a seeded shuffle. Their ends
// offset+limit differ, so no two share a plan entry: a GROUP BY's
// search, and the shard sub-queries, read only the end.
func pinCuts() [][2]int {
	cuts := [][2]int{{100, 0}, {100, 100}, {100, 300}, {50, 1000}, {1, 7},
		{250, 40}, {100, 2500}, {10, 20000}, {5, 4}, {400, 600}}
	rand.New(rand.NewSource(52)).Shuffle(len(cuts), func(i, j int) { cuts[i], cuts[j] = cuts[j], cuts[i] })
	return cuts
}

// pinShapes are paged queries whose search splits: a window query, a
// GROUP BY and a filtered GROUP BY, each free to order at least two
// columns.
func pinShapes(tbl *table.Table) []server.QueryRequest {
	group := server.QueryRequest{Table: tbl.Name, ID: "group", Kind: "groupby",
		SortCols: []server.SortColReq{{Name: "p_brand"}, {Name: "p_type"}, {Name: "supp_nation"}},
		Agg:      &server.AggReq{Kind: "sum", Col: "l_extendedprice"}}
	filtered := group
	filtered.ID = "filtered"
	filtered.Filters = []server.FilterReq{{Col: "p_size", Op: "neq", Const: 15}}
	return []server.QueryRequest{
		{Table: tbl.Name, ID: "window", Kind: "partitionby",
			SortCols: []server.SortColReq{{Name: "supp_nation"}, {Name: "cust_nation"}, {Name: "p_brand"}},
			Window:   &server.WindowReq{OrderCol: "l_extendedprice", Desc: true}},
		group, filtered,
	}
}

// TestPinPagesReuseTheirOrder visits ten cuts of each paged shape on a
// cold coordinator: each page misses its pin entry and pins the single
// node's fresh plan, and every page after the first considers one order
// for its pin, plus one on each shard, whose sub-query the pin fixes.
func TestPinPagesReuseTheirOrder(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testutilTPCH(t, 40000)
	const nShards = 2
	for _, shape := range pinShapes(tbl) {
		coord, done := newTopology(t, []*table.Table{tbl}, nShards, Config{})
		for i, cut := range pinCuts() {
			req := shape
			req.Limit, req.Offset = &cut[0], cut[1]
			want := runOracleResult(t, tbl, req, 1)
			var res *server.QueryResult
			var err error
			bumps := testutil.Bumps(func() { res, err = coord.Run(context.Background(), req) },
				"planner.orders_considered", "server.plancache_order_hits")
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s limit %d offset %d", shape.ID, cut[0], cut[1])
			if got, want := fmt.Sprint(res.Plan, res.ColOrder), fmt.Sprint(want.Plan.String(), want.ColOrder); got != want {
				t.Errorf("%s: coordinator pinned %s, a fresh search %s", label, got, want)
			}
			if hits, misses, _ := coord.PlanCache().Stats(); hits != 0 || misses != int64(i+1) {
				t.Errorf("%s: pin cache hits %d misses %d, want 0 and %d", label, hits, misses, i+1)
			}
			if i == 0 {
				if bumps[0] <= 1+nShards || bumps[1] != 0 {
					t.Errorf("%s (first page): %d orders considered, %d order hits; want the full order search", label, bumps[0], bumps[1])
				}
			} else if bumps[0] != 1+nShards || bumps[1] != 1 {
				t.Errorf("%s: %d orders considered, %d order hits; want %d and 1", label, bumps[0], bumps[1], 1+nShards)
			}
		}
		if n := coord.PlanCache().OrderLen(); n != 1 {
			t.Errorf("%s: %d order entries, want 1", shape.ID, n)
		}
		done()
	}
}

// TestUnsplitPinsTouchNoOrder runs two cuts of every coordinator query
// whose pin search does not split — an ORDER BY, a free prefix of one
// column, LIMIT 0 and ORDER BY <aggregate>; callers cannot send
// col_order — and requires that none reads or files an order entry.
func TestUnsplitPinsTouchNoOrder(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testutilTPCH(t, 40000)
	shapes := pinShapes(tbl)
	orderBy := server.QueryRequest{Table: tbl.Name, ID: "orderby", Kind: "orderby",
		SortCols: []server.SortColReq{{Name: "p_brand"}, {Name: "p_type"}, {Name: "supp_nation"}}}
	onePrefix := shapes[0]
	onePrefix.ID, onePrefix.SortCols = "window-one-prefix", shapes[0].SortCols[:1]
	byAgg := shapes[1]
	byAgg.ID, byAgg.OrderByAgg = "by-agg", true
	limit0 := shapes[0]
	limit0.ID = "limit-0"
	coord, done := newTopology(t, []*table.Table{tbl}, 2, Config{})
	defer done()
	for _, req := range []server.QueryRequest{orderBy, onePrefix, limit0, byAgg} {
		for _, cut := range [][2]int{{100, 0}, {100, 100}} {
			if req.ID == limit0.ID {
				cut[0] = 0
			}
			req.Limit, req.Offset = &cut[0], cut[1]
			bumps := testutil.Bumps(func() {
				if _, err := coord.Run(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}, "server.plancache_order_hits")
			if n := coord.PlanCache().OrderLen(); n != 0 || bumps[0] != 0 {
				t.Errorf("%s limit %d offset %d: %d order entries, %d order hits; want none", req.ID, cut[0], cut[1], n, bumps[0])
			}
		}
	}
}
