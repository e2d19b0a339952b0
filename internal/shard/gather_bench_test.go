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
// the wire over a 2^18-row TPC-H table cut into 3 ranges, each range's
// answer computed once by the engine under the pinned order as a shard
// computes its window sub-query's (oids only, no ranks), for two
// unlimited window clauses:
//
//   - packed: the pinned shape of mcsperf's shard3_window_full
//     (PARTITION BY supp_nation, l_year ORDER BY l_extendedprice DESC),
//     29 key bits and an 18-bit index in one word: MergeRunsContext;
//   - wide: PARTITION BY supp_nation, cust_nation, l_year, s_acctbal
//     ORDER BY l_extendedprice, 55 key bits, so key and index (73 bits)
//     take the code-vector merge, mergeWide.
//
// It reports the three steps separately: build-ns/row is the three run
// builds (validate + key, which the coordinator runs on the fan-out
// goroutines as answers land), merge-ns/row and rank-ns/row the merge
// and the pass that unpacks the merged keys into oids and ranks — what
// remains once the last run is built.
//
//	make bench-gather
func BenchmarkCoordinatorGather(b *testing.B) {
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 18, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		part []string
		desc bool
	}{
		{"packed", []string{"supp_nation", "l_year"}, true},
		{"wide", []string{"supp_nation", "cust_nation", "l_year", "s_acctbal"}, false},
	} {
		req := server.QueryRequest{Table: tbl.Name, Kind: "partitionby",
			Window: &server.WindowReq{OrderCol: "l_extendedprice", Desc: c.desc}}
		for _, name := range c.part {
			req.SortCols = append(req.SortCols, server.SortColReq{Name: name})
		}
		q, err := req.ToEngineQuery()
		if err != nil {
			b.Fatal(err)
		}
		bound, err := engine.Bind(tbl, q)
		if err != nil {
			b.Fatal(err)
		}
		opts := engine.Options{Massaging: true, Model: server.BuiltinModel(), Rho: -1, MaxPlans: testMaxPlans, Workers: 2}
		full, err := engine.RunContext(ctx, tbl, q, opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.FixedColOrder, opts.OidsOnly = full.ColOrder, true
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
			answers[si] = &server.QueryResult{Rows: res.Rows, RowOids: res.RowOids}
		}
		g := &gather{sp: newMergeSpec(bound, full.ColOrder), ranges: ranges, cols: bound.Cols}
		if g.sp.wide != (c.name == "wide") {
			b.Fatalf("%s: key and index take %d bits, wide form = %v", c.name, g.sp.drop[0], g.sp.wide)
		}

		b.Run(c.name, func(b *testing.B) {
			var build, merge, rank time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				runs := make([]*run, len(answers))
				for si, a := range answers {
					if runs[si], err = g.buildRun(ctx, si, a); err != nil {
						b.Fatal(err)
					}
				}
				built := time.Now()
				keys, err := mergeRuns(ctx, runs, g.sp, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				merged := time.Now()
				if _, _, err := unpackWindow(ctx, keys, g.sp); err != nil {
					b.Fatal(err)
				}
				build += built.Sub(start)
				merge += merged.Sub(built)
				rank += time.Since(merged)
			}
			rows := float64(b.N) * float64(tbl.N)
			b.ReportMetric(float64(build.Nanoseconds())/rows, "build-ns/row")
			b.ReportMetric(float64(merge.Nanoseconds())/rows, "merge-ns/row")
			b.ReportMetric(float64(rank.Nanoseconds())/rows, "rank-ns/row")
		})
	}
}
