package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// diffWorkers is the worker sweep of the differential battery.
var diffWorkers = []int{1, 4, 8}

// directOracle runs every TPC-H query directly through engine.RunContext
// at the given worker count and returns query id -> canonical encoding.
func directOracle(t *testing.T, srv *Server, items []workloads.Item, workers int) map[string][]byte {
	t.Helper()
	oracle := make(map[string][]byte, len(items))
	for _, it := range items {
		res, err := engine.RunContext(context.Background(), it.Table, it.Query, directOptions(srv, workers))
		if err != nil {
			t.Fatalf("direct %s (workers=%d): %v", it.ID, workers, err)
		}
		enc, err := canonEngine(res)
		if err != nil {
			t.Fatal(err)
		}
		oracle[it.ID] = enc
	}
	return oracle
}

// TestDifferentialHandlerVsEngine submits every TPC-H workload query
// through the mcsd handler path and asserts the result encoding is
// byte-identical to a direct engine.RunContext call, at workers
// {1, 4, 8}, on both the uncached (plan-search) and cached
// (PlanOverride replay) paths. Workers never reach the plan search, so
// each worker count gets a fresh server: a shared one would answer the
// later counts from the first's cache entries.
func TestDifferentialHandlerVsEngine(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 4000)
	items := workloads.TPCHQueries(tbl, "")
	big := testTPCH(t, 40000)
	big.Name += "_big"
	serve := func() (*Server, string, func()) {
		srv := newTestServer(t, Config{MaxConcurrent: 4}, tbl, big)
		hs := httptest.NewServer(srv.Handler())
		return srv, hs.URL, func() {
			hs.Close()
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}
	}

	for _, workers := range diffWorkers {
		srv, url, done := serve()
		oracle := directOracle(t, srv, items, workers)
		seen := make(map[string]bool) // plan keys this server has cached
		for _, it := range items {
			req := reqFromQuery(t, tbl.Name, it.Query, workers)
			key := planKey(t, srv, req)
			for pass, wantHit := range []bool{seen[key], true} {
				res, err := doQuery(url, req)
				if err != nil {
					t.Fatalf("%s workers=%d pass=%d: %v", it.ID, workers, pass, err)
				}
				if res.PlanCacheHit != wantHit {
					t.Errorf("%s workers=%d pass=%d: PlanCacheHit=%v, want %v",
						it.ID, workers, pass, res.PlanCacheHit, wantHit)
				}
				got, err := canonServer(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, oracle[it.ID]) {
					t.Errorf("%s workers=%d pass=%d (cached=%v): server result diverges from direct engine run\nserver: %s\ndirect: %s",
						it.ID, workers, pass, wantHit, got, oracle[it.ID])
				}
			}
			seen[key] = true
		}
		done()
	}

	// One cell past 256 workers (the wire admits MaxWorkers), against the
	// one-worker engine run, on a table large enough for round 0 to sort
	// in parallel: a per-row partition index once kept in a byte answered
	// such a request 200 with a wrong result.
	// Q13 groups by the high-cardinality c_custkey, unfiltered.
	bigItems := workloads.TPCHQueries(big, "")
	q13 := slices.IndexFunc(bigItems, func(it workloads.Item) bool { return it.ID == "tpch.q13" })
	if q13 < 0 {
		t.Fatal("the TPC-H workload no longer has tpch.q13")
	}
	it := bigItems[q13]
	srv, url, done := serve()
	defer done()
	want := directOracle(t, srv, bigItems[q13:q13+1], 1)[it.ID]
	res, err := doQuery(url, reqFromQuery(t, big.Name, it.Query, 300))
	if err != nil {
		t.Fatalf("%s workers=300: %v", it.ID, err)
	}
	got, err := canonServer(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s workers=300: server result diverges from the one-worker engine run", it.ID)
	}
}

// TestDifferentialConcurrentClients replays the oracle comparison under
// client concurrency {1, 8, 32}: every client's every result must still
// be byte-identical to the direct engine run, with queries contending
// for admission slots and the shared plan cache.
func TestDifferentialConcurrentClients(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 4000)
	items := workloads.TPCHQueries(tbl, "")
	srv := newTestServer(t, Config{MaxConcurrent: 4}, tbl)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const workers = 4
	oracle := directOracle(t, srv, items, workers)

	for _, clients := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			errCh := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					// Each client walks the query set from its own offset so
					// distinct queries are in flight simultaneously.
					for i := 0; i < len(items); i++ {
						it := items[(c+i)%len(items)]
						req := reqFromQuery(t, tbl.Name, it.Query, workers)
						res, err := doQuery(hs.URL, req)
						if err != nil {
							errCh <- fmt.Errorf("client %d %s: %w", c, it.ID, err)
							return
						}
						got, err := canonServer(res)
						if err != nil {
							errCh <- err
							return
						}
						if !bytes.Equal(got, oracle[it.ID]) {
							errCh <- fmt.Errorf("client %d %s: result diverges from direct engine run", c, it.ID)
							return
						}
					}
					errCh <- nil
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestDifferentialSynchronousRun checks the in-process Run path (the
// same admission + cache + engine pipeline without the job layer)
// against the oracle, workers swept.
func TestDifferentialSynchronousRun(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 4000)
	items := workloads.TPCHQueries(tbl, "")
	srv := newTestServer(t, Config{MaxConcurrent: 4}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	for _, workers := range diffWorkers {
		oracle := directOracle(t, srv, items, workers)
		for _, it := range items {
			res, err := srv.Run(context.Background(), reqFromQuery(t, tbl.Name, it.Query, workers))
			if err != nil {
				t.Fatalf("Run %s workers=%d: %v", it.ID, workers, err)
			}
			got, err := canonServer(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle[it.ID]) {
				t.Errorf("Run %s workers=%d: result diverges from direct engine run", it.ID, workers)
			}
		}
	}
}

// TestDifferentialKeepAllFilter: every unfiltered TPC-H query, sent
// through the handler under a filter on its first sort column that
// keeps every row, answers with the bytes of the direct engine run
// without the filter — whose selection lists no rows — unlimited and on
// a page, at one and four workers.
func TestDifferentialKeepAllFilter(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 4000)
	srv := newTestServer(t, Config{MaxConcurrent: 4}, tbl)
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	seven := 7
	cells := 0
	for _, it := range workloads.TPCHQueries(tbl, "") {
		if len(it.Query.Filters) > 0 {
			continue
		}
		for _, workers := range []int{1, 4} {
			for _, page := range []struct {
				limit  *int
				offset int
			}{{nil, 0}, {&seven, 5}} {
				limit := page.limit
				opts := directOptions(srv, workers)
				opts.Limit, opts.Offset = limit, page.offset
				direct, err := engine.RunContext(context.Background(), tbl, it.Query, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := canonEngine(direct)
				if err != nil {
					t.Fatal(err)
				}
				req := reqFromQuery(t, tbl.Name, it.Query, workers)
				req.Filters = []FilterReq{{Col: it.Query.SortCols[0].Name, Op: "ge", Const: 0}}
				req.Limit, req.Offset = opts.Limit, opts.Offset
				res, err := doQuery(hs.URL, req)
				if err != nil {
					t.Fatalf("%s workers=%d limit=%v: %v", it.ID, workers, limit != nil, err)
				}
				got, err := canonServer(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s workers=%d limit=%v: a filter keeping every row diverges from no filter\n got: %s\nwant: %s", it.ID, workers, limit != nil, got, want)
				}
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("no unfiltered TPC-H query")
	}
}

// TestServedSearchReadsNoClock pins that a server configured without a
// Rho plans every TPC-H query like the clock-free engine search
// (Rho -1), the plan a cache hit replays and a coordinator pins, and
// that a positive Rho is refused.
func TestServedSearchReadsNoClock(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 40000)
	reg := NewRegistry()
	if err := reg.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Registry: reg, Model: BuiltinModel(), Rho: 0.001}); err == nil {
		t.Error("New accepted a positive Rho")
	}
	srv, err := New(Config{Registry: reg, Model: BuiltinModel(), MaxPlans: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	for _, it := range workloads.TPCHQueries(tbl, "") {
		want, err := engine.RunContext(context.Background(), tbl, it.Query,
			engine.Options{Massaging: true, Model: BuiltinModel(), Rho: -1, MaxPlans: 8192})
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Run(context.Background(), reqFromQuery(t, tbl.Name, it.Query, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(res.Plan, res.ColOrder), fmt.Sprint(want.Plan.String(), want.ColOrder); got != want {
			t.Errorf("%s: server planned %s, the clock-free search %s", it.ID, got, want)
		}
	}
}
