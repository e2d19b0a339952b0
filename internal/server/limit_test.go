package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// The serving half of the truncation battery: mcsd LIMIT/OFFSET
// results must be byte-identical to a direct unlimited
// engine.RunContext run sliced to [offset, offset+limit), on both the
// uncached (plan search) and cached (replay) paths, with the plan
// cache keyed so truncated and full plans never collide. The
// duplicate-fraction dimension is covered by the engine-layer battery
// (internal/engine/limit_test.go); TPC-H data feeds this one.

// sliceServerOracle applies the engine's LIMIT/OFFSET slicing to a
// canonical full result: ranked rows for window queries, the group
// table otherwise.
func sliceServerOracle(full *engine.Result, window bool, limit *int, off int) ([]byte, error) {
	cut := func(n int) (int, int) {
		lo := off
		if lo > n {
			lo = n
		}
		hi := n
		if limit != nil && lo+*limit < hi {
			hi = lo + *limit
		}
		return lo, hi
	}
	sliced := &engine.Result{Rows: full.Rows}
	if window {
		lo, hi := cut(len(full.Ranks))
		sliced.Ranks = full.Ranks[lo:hi]
		sliced.RowOids = full.RowOids[lo:hi]
	} else {
		lo, hi := cut(len(full.GroupKeys))
		sliced.GroupKeys = full.GroupKeys[lo:hi]
		sliced.Aggregates = full.Aggregates[lo:hi]
	}
	return canonLimited(canonEngine(sliced))
}

// canonLimited post-processes a canonical encoding so zero-length and
// nil slices compare equal: a truncated run that produced no entries
// omits the field, a sliced oracle holds an empty one.
func canonLimited(enc []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var data map[string]any
	if err := json.Unmarshal(enc, &data); err != nil {
		return nil, err
	}
	for k, v := range data {
		if arr, ok := v.([]any); ok && len(arr) == 0 {
			delete(data, k)
		}
	}
	return json.Marshal(data)
}

func canonServerLimited(res *QueryResult) ([]byte, error) {
	return canonLimited(canonServer(res))
}

// limitBatteryItems picks a window query (TPC-DS — TPC-H has none), a
// grouped aggregate, and an aggregate-ordered query so all three
// truncation shapes (row rank, group rank, slice-only) are exercised.
func limitBatteryItems(t *testing.T, rows int) ([]workloads.Item, []*table.Table) {
	t.Helper()
	tpch := testTPCH(t, rows)
	tpcds := testTPCDS(t, rows)
	items := append(workloads.TPCHQueries(tpch, ""), workloads.TPCDSQueries(tpcds)...)
	var window, group, agg *workloads.Item
	for i := range items {
		it := items[i]
		switch {
		case it.Query.Window != nil && window == nil:
			window = &items[i]
		case it.Query.OrderByAgg && agg == nil:
			agg = &items[i]
		case it.Query.Window == nil && !it.Query.OrderByAgg && group == nil:
			group = &items[i]
		}
	}
	var out []workloads.Item
	for _, it := range []*workloads.Item{window, group, agg} {
		if it == nil {
			t.Fatal("workloads no longer cover all three truncation shapes")
		}
		out = append(out, *it)
	}
	return out, []*table.Table{tpch, tpcds}
}

// TestLimitDifferentialRun sweeps the in-process Run path (admission +
// plan cache + engine) over workers {1,2,4,8} x K {0,1,100,n-1,n,n+7}
// x offsets {0,3,n}, two passes per point: the first misses the plan
// cache unless an earlier point had the same sort cut (offset+K, or
// none at all for ORDER BY <aggregate>), the second hits it — except
// LIMIT 0, which skips the cache entirely — and both must equal the
// sliced oracle. Each worker count gets a fresh server, so every count
// runs the uncached path too.
func TestLimitDifferentialRun(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 2000
	items, tables := limitBatteryItems(t, n)

	for _, it := range items {
		it := it
		t.Run(it.ID, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				srv := newTestServer(t, Config{MaxConcurrent: 4}, tables...)
				full, err := engine.RunContext(context.Background(), it.Table, it.Query, directOptions(srv, 1))
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[string]bool) // plan keys this server has cached
				for _, k := range []int{0, 1, 100, n - 1, n, n + 7} {
					for _, off := range []int{0, 3, n} {
						k, off := k, off
						want, err := sliceServerOracle(full, it.Query.Window != nil, &k, off)
						if err != nil {
							t.Fatal(err)
						}
						req := reqFromQuery(t, it.Table.Name, it.Query, workers)
						req.Limit = &k
						req.Offset = off
						key := planKey(t, srv, req)
						for pass := 0; pass < 2; pass++ {
							res, err := srv.Run(context.Background(), req)
							if err != nil {
								t.Fatalf("workers=%d k=%d off=%d pass=%d: %v", workers, k, off, pass, err)
							}
							wantHit := k > 0 && (pass == 1 || seen[key])
							if res.PlanCacheHit != wantHit {
								t.Errorf("workers=%d k=%d off=%d pass=%d: PlanCacheHit=%v, want %v",
									workers, k, off, pass, res.PlanCacheHit, wantHit)
							}
							got, err := canonServerLimited(res)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, want) {
								t.Errorf("workers=%d k=%d off=%d pass=%d: diverges from full-sort-then-slice\ngot:  %s\nwant: %s",
									workers, k, off, pass, got, want)
							}
						}
						seen[key] = seen[key] || k > 0
					}
				}
				if err := srv.Shutdown(context.Background()); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		})
	}
}

// TestLimitDifferentialHandler replays a reduced sweep through the
// full HTTP handler path (POST /query, job poll, result fetch): the
// wire decoding of limit/offset must reach the engine intact.
func TestLimitDifferentialHandler(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 2000
	items, tables := limitBatteryItems(t, n)
	srv := newTestServer(t, Config{MaxConcurrent: 4}, tables...)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const workers = 4
	for _, it := range items {
		full, err := engine.RunContext(context.Background(), it.Table, it.Query, directOptions(srv, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 100, n + 7} {
			for _, off := range []int{0, 3} {
				k, off := k, off
				want, err := sliceServerOracle(full, it.Query.Window != nil, &k, off)
				if err != nil {
					t.Fatal(err)
				}
				req := reqFromQuery(t, it.Table.Name, it.Query, workers)
				lim := k
				req.Limit = &lim
				req.Offset = off
				res, err := doQuery(hs.URL, req)
				if err != nil {
					t.Fatalf("%s k=%d off=%d: %v", it.ID, k, off, err)
				}
				got, err := canonServerLimited(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s k=%d off=%d: handler result diverges from full-sort-then-slice\ngot:  %s\nwant: %s",
						it.ID, k, off, got, want)
				}
			}
		}
	}
}

// TestLimitPlanCacheKeySeparation pins that the plan cache keys a
// LIMIT/OFFSET query by its sort cut (engine.SortCut), the only part
// of it the plan search reads: a different cut misses (a full-sort plan
// replayed for a truncated query, or vice versa, would carry the wrong
// plan economics even when results stay correct), an equal cut hits,
// and an offset without a limit hits the unlimited entry and returns
// the unlimited result sliced.
func TestLimitPlanCacheKeySeparation(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	items, tables := limitBatteryItems(t, 1000)
	srv := newTestServer(t, Config{MaxConcurrent: 2}, tables...)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	it := items[0] // the window query: its cut is offset+limit rows
	full, err := engine.RunContext(context.Background(), it.Table, it.Query, directOptions(srv, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		limit, offset int // limit -1: none
		wantHit       bool
	}{
		{-1, 0, false}, // unlimited: no cut
		{10, 0, false}, // cut 10
		{10, 3, false}, // cut 13
		{13, 0, true},  // cut 13 again
		{-1, 3, true},  // no cut: the unlimited entry
	} {
		label := fmt.Sprintf("limit=%d offset=%d", v.limit, v.offset)
		req := reqFromQuery(t, it.Table.Name, it.Query, 1)
		req.Offset = v.offset
		if v.limit >= 0 {
			req.Limit = &v.limit
		}
		res, err := srv.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.PlanCacheHit != v.wantHit {
			t.Errorf("%s: PlanCacheHit=%v, want %v", label, res.PlanCacheHit, v.wantHit)
		}
		want, err := sliceServerOracle(full, true, req.Limit, v.offset)
		if err != nil {
			t.Fatal(err)
		}
		got, err := canonServerLimited(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: diverges from the unlimited result sliced\ngot:  %s\nwant: %s", label, got, want)
		}
	}
}

// TestAdmissionChargesTruncatedQueryNoInputs pins what admission and
// the engine's degradation charge a truncated query: no materialized
// input columns, since its sort reads the ByteSlices itself — and an
// unlimited query is charged alike. A budget of exactly the estimate at
// 8 workers runs both at 8; one byte less degrades both.
func TestAdmissionChargesTruncatedQueryNoInputs(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 40000)
	q := engine.Query{
		Kind:     planner.GroupBy,
		SortCols: []engine.SortCol{{Name: "l_returnflag"}, {Name: "l_linestatus"}},
		Agg:      &engine.Agg{Kind: engine.Count},
	}
	// The 8-worker footprint as admission prices it.
	b, err := engine.Bind(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	budget := engine.EstimatePipelineBytes(tbl.N, reservedRounds(b), 8)
	for _, tc := range []struct {
		budget  int64
		workers func(int) bool
		want    string
	}{
		{budget, func(w int) bool { return w == 8 }, "8"},
		{budget - 1, func(w int) bool { return w < 8 }, "fewer than 8"},
	} {
		runUnderBudget(t, tbl, q, tc.budget, func(label string, workers int) {
			if !tc.workers(workers) {
				t.Errorf("budget %d: %s query ran at %d workers, want %s", tc.budget, label, workers, tc.want)
			}
		})
	}
}

// runUnderBudget runs q on a server with the given byte budget at 8
// workers, unlimited and under a limit, handing check each run's
// effective worker count.
func runUnderBudget(t *testing.T, tbl *table.Table, q engine.Query, budget int64, check func(label string, workers int)) {
	t.Helper()
	srv := newTestServer(t, Config{MaxBytes: budget}, tbl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := reqFromQuery(t, tbl.Name, q, 8)
	full, err := doQuery(hs.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	check("unlimited", full.Workers)
	lim := 2
	req.Limit = &lim
	limited, err := doQuery(hs.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	check("limited", limited.Workers)
}
