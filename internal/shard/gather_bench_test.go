package shard

import (
	"context"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/server"
)

// BenchmarkCoordinatorGather times the coordinator's gather without
// the wire: the pinned window shape of mcsperf's shard3_window_full
// (PARTITION BY supp_nation, l_year ORDER BY l_extendedprice DESC, no
// LIMIT) over a 2^18-row TPC-H table cut into 3 ranges, each range's
// answer computed once by the engine under the pinned order. It reports
// the two halves separately: build-ns/row is the three run builds
// (validate + key, which the coordinator runs on the fan-out goroutines
// as answers land), merge+rank-ns/row what remains once the last run is
// built.
//
//	make bench-gather
func BenchmarkCoordinatorGather(b *testing.B) {
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 18, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	req := server.QueryRequest{Table: tbl.Name, Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "supp_nation"}, {Name: "l_year"}},
		Window:   &server.WindowReq{OrderCol: "l_extendedprice", Desc: true}}
	q, err := req.ToEngineQuery()
	if err != nil {
		b.Fatal(err)
	}
	bound, err := engine.Bind(tbl, q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := engine.Options{Massaging: true, Model: server.BuiltinModel(), Rho: -1, MaxPlans: testMaxPlans, Workers: 2}
	full, err := engine.RunContext(ctx, tbl, q, opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.FixedColOrder = full.ColOrder
	ranges := Ranges(tbl.N, 3)
	answers := make([]*server.QueryResult, len(ranges))
	for si, rng := range ranges {
		st, err := Slice(tbl, rng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := engine.RunContext(ctx, st, q, opts)
		if err != nil {
			b.Fatal(err)
		}
		answers[si] = &server.QueryResult{Rows: res.Rows, Ranks: res.Ranks, RowOids: res.RowOids}
	}
	g := &gather{sp: newMergeSpec(bound, full.ColOrder), ranges: ranges, cols: bound.Cols}

	var build, merge time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		runs := make([]*run, len(answers))
		for si, a := range answers {
			if runs[si], err = g.buildRun(ctx, si, a); err != nil {
				b.Fatal(err)
			}
		}
		built := time.Now()
		if _, _, err := mergeWindowRuns(ctx, runs, g, nil, 0, 1); err != nil {
			b.Fatal(err)
		}
		build += built.Sub(start)
		merge += time.Since(built)
	}
	rows := float64(b.N) * float64(tbl.N)
	b.ReportMetric(float64(build.Nanoseconds())/rows, "build-ns/row")
	b.ReportMetric(float64(merge.Nanoseconds())/rows, "merge+rank-ns/row")
}
