package server

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/obs"
)

// BenchmarkColdPageSearch times one cold page of mcsperf's
// serve_topk_cold shape — a top-100 window query over four free
// PARTITION BY columns of a 2^19-row TPC-H table, the workload's search
// budget, one worker — end to end through Server.Run, at the
// workload's first, middle and last page: /fresh with an
// empty plan cache, so the page runs the split search (the column
// orders the budget holds, then the widths under the cut),
// /cached-order with only the page's order entry, so it runs the width
// search alone. Both miss their plan entry and choose the same plan.
// orders/op and plans_costed/op are the planner.orders_considered and
// planner.plans_costed counts per page, the latter in round costs
// evaluated (the unit of MaxPlans, 2,864 per order here): deterministic,
// so they repeat exactly on every machine.
func BenchmarkColdPageSearch(b *testing.B) {
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 19, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(tbl); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, Model: BuiltinModel(), MaxPlans: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Error(err)
		}
	}()
	limit := 100
	page := QueryRequest{Table: tbl.Name, ID: "cold_page", Kind: "partitionby", Workers: 1,
		SortCols: []SortColReq{{Name: "supp_nation"}, {Name: "cust_nation"}, {Name: "p_brand"}, {Name: "o_orderdate"}},
		Window:   &WindowReq{OrderCol: "l_extendedprice", Desc: true},
		Limit:    &limit}
	q, err := page.ToEngineQuery()
	if err != nil {
		b.Fatal(err)
	}
	bound, err := engine.Bind(tbl, q)
	if err != nil {
		b.Fatal(err)
	}
	orderKey, ok := bound.OrderKey(page.Limit, 0, nil)
	if !ok {
		b.Fatal("the page's search does not split")
	}

	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	orders, costed := obs.NewCounter("planner.orders_considered"), obs.NewCounter("planner.plans_costed")
	// The workload's first, middle and last pages.
	for _, offset := range []int{0, 25500, 51100} {
		req := page
		req.Offset = offset
		srv.cache = NewPlanCache(0)
		want, err := srv.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name   string
			cached bool
		}{{"fresh", false}, {"cached-order", true}} {
			b.Run(fmt.Sprintf("offset=%d/%s", offset, bc.name), func(b *testing.B) {
				var nOrders, nCosted int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					srv.cache = NewPlanCache(0)
					if bc.cached {
						srv.cache.FillOrder(orderKey, want.ColOrder)
					}
					o0, c0 := orders.Value(), costed.Value()
					b.StartTimer()
					res, err := srv.Run(context.Background(), req)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					nOrders += orders.Value() - o0
					nCosted += costed.Value() - c0
					if res.Plan != want.Plan {
						b.Fatalf("page planned %s, a fresh search %s", res.Plan, want.Plan)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(nOrders)/float64(b.N), "orders/op")
				b.ReportMetric(float64(nCosted)/float64(b.N), "plans_costed/op")
			})
		}
	}
}
