// The cross-shard equivalence battery: every query shape the wire
// supports, across shard counts {1, 2, 3, 4}, LIMIT/OFFSET windows,
// duplicate rates, worker counts, and the cached/uncached pin paths —
// asserting the gathered result is byte-identical to a direct
// engine.RunContext run on the unsharded table, and to the 1-shard
// coordinator (docs/sharding.md).
package shard

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// batteryPair is one (table, query) combination of the battery.
type batteryPair struct {
	label string
	tbl   *table.Table
	req   server.QueryRequest
}

// batteryQueries enumerates the query shapes per battery table: plain
// ORDER BY, GROUP BY with each aggregate, ORDER BY <agg>, a window
// rank, and a filtered group-by.
func batteryQueries(tables []*table.Table) []batteryPair {
	narrow0, narrow99, wide := tables[0], tables[1], tables[2]
	var pairs []batteryPair
	add := func(tbl *table.Table, label string, req server.QueryRequest) {
		req.Table = tbl.Name
		req.ID = tbl.Name + "." + label
		pairs = append(pairs, batteryPair{label: req.ID, tbl: tbl, req: req})
	}
	for _, tbl := range []*table.Table{narrow0, narrow99} {
		add(tbl, "ob", server.QueryRequest{Kind: "orderby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b", Desc: true}}})
		add(tbl, "gb_count", server.QueryRequest{Kind: "groupby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
			Agg:      &server.AggReq{Kind: "count"}})
		add(tbl, "gb_sum_oba", server.QueryRequest{Kind: "groupby",
			SortCols:   []server.SortColReq{{Name: "b", Desc: true}, {Name: "a"}},
			Agg:        &server.AggReq{Kind: "sum", Col: "v"},
			OrderByAgg: true})
		add(tbl, "gb_avg", server.QueryRequest{Kind: "groupby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
			Agg:      &server.AggReq{Kind: "avg", Col: "v"}})
		add(tbl, "win", server.QueryRequest{Kind: "partitionby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
			Window:   &server.WindowReq{OrderCol: "c", Desc: true}})
		add(tbl, "gb_filter", server.QueryRequest{Kind: "groupby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "c"}},
			Filters:  []server.FilterReq{{Col: "f", Op: "ge", Const: 12}},
			Agg:      &server.AggReq{Kind: "count"}})
	}
	add(wide, "gb_count", server.QueryRequest{Kind: "groupby",
		SortCols: []server.SortColReq{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}, {Name: "w4"}, {Name: "w5"}},
		Agg:      &server.AggReq{Kind: "count"}})
	add(wide, "gb_avg", server.QueryRequest{Kind: "groupby",
		SortCols: []server.SortColReq{{Name: "w2", Desc: true}, {Name: "w1"}, {Name: "w3"}, {Name: "w4"}, {Name: "w5"}},
		Agg:      &server.AggReq{Kind: "avg", Col: "v"}})
	add(wide, "win", server.QueryRequest{Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}, {Name: "w4"}},
		Window:   &server.WindowReq{OrderCol: "w5"}})
	add(wide, "ob", server.QueryRequest{Kind: "orderby",
		SortCols: []server.SortColReq{{Name: "w1"}, {Name: "w2", Desc: true}}})
	return pairs
}

// batteryCell is one LIMIT/OFFSET window.
type batteryCell struct {
	label  string
	limit  *int
	offset int
}

func batteryCells() []batteryCell {
	return []batteryCell{
		{label: "full"},
		{label: "limit0", limit: intp(0)},
		{label: "limit7", limit: intp(7)},
		{label: "limit13off5", limit: intp(13), offset: 5},
		{label: "off11", offset: 11},
	}
}

var batteryWorkers = []int{1, 4, 8}

// TestCrossShardDifferentialBattery is the tentpole's proof: for every
// (query, window, workers) cell, the {1,2,3,4}-shard coordinator's
// result bytes equal the direct single-node engine run's — including
// the tie-heavy duplicate table, the >64-bit wide-key table, and the
// replayed (plan-cache-hit) pin path.
func TestCrossShardDifferentialBattery(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	pairs := batteryQueries(tables)
	cells := batteryCells()

	// The oracle depends on neither the topology nor the worker count
	// (engine output is worker-invariant — its own battery proves that):
	// compute it once per (query, window). Every worker sweep comparing
	// against it then also re-asserts worker-invariance of the sharded
	// path.
	okey := func(pair, cell string) string { return pair + "|" + cell }
	oracle := make(map[string][]byte)
	oraclePlan := make(map[string]string) // the single node's plan and column order
	for _, p := range pairs {
		for _, c := range cells {
			req := p.req
			req.Limit, req.Offset = c.limit, c.offset
			res := runOracleResult(t, p.tbl, req, 4)
			oracle[okey(p.label, c.label)] = canonEngine(t, res)
			oraclePlan[okey(p.label, c.label)] = fmt.Sprint(res.Plan.String(), res.ColOrder)
		}
	}

	oneShard := make(map[string][]byte)
	ctx := context.Background()
	for _, nShards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			coord, done := newTopology(t, tables, nShards, Config{})
			defer done()
			// Pin keys the fresh coordinator has cached so far. The key
			// holds only what the search reads — not the aggregate, the
			// workers or a cut-free offset — so e.g. gb_count and gb_avg
			// over the same sort columns, or one query at every worker
			// count, legitimately share a pin; the expectation models that.
			seen := make(map[string]bool)
			for _, p := range pairs {
				for _, c := range cells {
					for _, w := range batteryWorkers {
						k := fmt.Sprintf("%s|%s|w%d", p.label, c.label, w)
						req := p.req
						req.Limit, req.Offset, req.Workers = c.limit, c.offset, w
						limit0 := c.limit != nil && *c.limit == 0
						var pk string
						if !limit0 {
							q, err := req.ToEngineQuery()
							if err != nil {
								t.Fatal(err)
							}
							b, err := engine.Bind(p.tbl, q)
							if err != nil {
								t.Fatal(err)
							}
							pk = b.PlanKey(c.limit, c.offset, nil)
						}

						res, err := coord.Run(ctx, req)
						if err != nil {
							t.Fatalf("%s: %v", k, err)
						}
						if wantHit := !limit0 && seen[pk]; res.PlanCacheHit != wantHit {
							t.Errorf("%s: PlanCacheHit=%v, want %v", k, res.PlanCacheHit, wantHit)
						}
						if !limit0 {
							seen[pk] = true
						}
						got := canonServer(t, res)
						if want := oracle[okey(p.label, c.label)]; !bytes.Equal(got, want) {
							t.Errorf("%s: %d-shard result diverges from the single-node engine\n got: %s\nwant: %s", k, nShards, got, want)
						}
						// The pin is the engine's plan function over the full
						// table: same plan, same column order, on every cell.
						if got, want := fmt.Sprint(res.Plan, res.ColOrder), oraclePlan[okey(p.label, c.label)]; got != want {
							t.Errorf("%s: coordinator pinned %s, the single node chose %s", k, got, want)
						}
						if nShards == 1 {
							oneShard[k] = got
						} else if !bytes.Equal(got, oneShard[k]) {
							t.Errorf("%s: %d-shard result diverges from the 1-shard coordinator", k, nShards)
						}

						// Cached pass: the pinned choice replays from the
						// coordinator's cache; bytes must not move. LIMIT 0
						// runs no search and must never report a hit.
						if w != 4 {
							continue
						}
						// It runs as a job whose result frame is fetched
						// through the handler.
						res2 := fetchResult(t, k+" cached", coord, req)
						if res2.PlanCacheHit == limit0 {
							t.Errorf("%s cached: PlanCacheHit=%v, want %v", k, res2.PlanCacheHit, !limit0)
						}
						if got2 := canonServer(t, res2); !bytes.Equal(got2, oracle[okey(p.label, c.label)]) {
							t.Errorf("%s: cached pin replay changed the result bytes", k)
						}
					}
				}
			}
		})
	}
}

// TestCrossShardKeepAllFilter: every unfiltered battery query, sent to
// a 3-shard coordinator under a filter on its first sort column that
// keeps every row, answers with the bytes of the single-node engine run
// without the filter — whose selection, and every shard's, lists no
// rows — on every LIMIT/OFFSET window, at one and four workers.
func TestCrossShardKeepAllFilter(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 3, Config{})
	defer done()
	ctx := context.Background()
	for _, p := range batteryQueries(tables) {
		if len(p.req.Filters) > 0 {
			continue
		}
		for _, c := range batteryCells() {
			req := p.req
			req.Limit, req.Offset = c.limit, c.offset
			want := canonEngine(t, runOracleResult(t, p.tbl, req, 4))
			req.Filters = []server.FilterReq{{Col: req.SortCols[0].Name, Op: "ge", Const: 0}}
			for _, w := range []int{1, 4} {
				req.Workers = w
				res, err := coord.Run(ctx, req)
				if err != nil {
					t.Fatalf("%s|%s|w%d: %v", p.label, c.label, w, err)
				}
				if got := canonServer(t, res); !bytes.Equal(got, want) {
					t.Errorf("%s|%s|w%d: a filter keeping every row diverges from no filter\n got: %s\nwant: %s", p.label, c.label, w, got, want)
				}
			}
		}
	}
}

// TestCrossShardTPCHWorkload replays the full TPC-H workload battery —
// the same queries the single-node differential suite runs — through a
// 3-shard topology.
func TestCrossShardTPCHWorkload(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testutilTPCH(t, 4001)
	items := workloads.TPCHQueries(tbl, "")
	coord, done := newTopology(t, []*table.Table{tbl}, 3, Config{})
	defer done()

	const workers = 4
	ctx := context.Background()
	for _, it := range items {
		res, err := engine.RunContext(ctx, tbl, it.Query, engine.Options{
			Massaging: true, Model: server.BuiltinModel(), Rho: -1,
			MaxPlans: testMaxPlans, Workers: workers,
		})
		if err != nil {
			t.Fatalf("direct %s: %v", it.ID, err)
		}
		want := canonEngine(t, res)

		req := wireRequest(t, tbl.Name, it.Query, workers)
		got, err := coord.Run(ctx, req)
		if err != nil {
			t.Fatalf("sharded %s: %v", it.ID, err)
		}
		if g := canonServer(t, got); !bytes.Equal(g, want) {
			t.Errorf("%s: 3-shard result diverges from the single-node engine\n got: %s\nwant: %s", it.ID, g, want)
		}
	}
}

// TestPinReadsNoClock pins that a coordinator configured without a Rho
// pins every TPC-H query to the clock-free engine search's plan
// (Rho -1), and that a positive Rho is refused.
func TestPinReadsNoClock(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testutilTPCH(t, 40000)
	if _, err := New(Config{Registry: server.NewRegistry(), Shards: []string{"http://127.0.0.1:1"},
		Model: server.BuiltinModel(), Rho: 0.001}); err == nil {
		t.Error("New accepted a positive Rho")
	}
	coord, done := newTopology(t, []*table.Table{tbl}, 2, Config{})
	defer done()
	for _, it := range workloads.TPCHQueries(tbl, "") {
		want, err := engine.RunContext(context.Background(), tbl, it.Query, engine.Options{
			Massaging: true, Model: server.BuiltinModel(), Rho: -1, MaxPlans: testMaxPlans,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background(), wireRequest(t, tbl.Name, it.Query, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(res.Plan, res.ColOrder), fmt.Sprint(want.Plan.String(), want.ColOrder); got != want {
			t.Errorf("%s: coordinator pinned %s, the clock-free search %s", it.ID, got, want)
		}
	}
}
