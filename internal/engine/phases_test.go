package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/plan"
)

// BenchmarkQueryPhases times the live phases of three workload queries
// (bench/mcsperf) on their seeded 2^19-row TPC-H tables, the way their
// callers run them: the median of each Timing phase per op, in ms
// (filter-ms, the filter stage and its row list; massage-ms, sort-ms,
// lookup-ms, scan-ms and agg-ms). It is the
// per-layer reading of a query as it runs, with its sort columns read
// straight from the table's ByteSlices — which mcsperf's traced replay,
// massaging materialised codes, does not see. The shapes:
//
//   - lib_ties, plan pinned to one 18-bit round in bank 32, workers 2;
//
//   - lib_wide_unique, pinned to rounds of 29 bits (bank 32) and 60 bits
//     (bank 64), workers 2;
//
//   - serve_topk_cold's first page (limit 100), its searched plan, workers 1.
//
//     go test -run '^$' -bench QueryPhases -benchtime 41x ./internal/engine/
func BenchmarkQueryPhases(b *testing.B) {
	rounds := func(rs ...plan.Round) *plan.Plan { return &plan.Plan{Rounds: rs} }
	pins := map[string]*plan.Plan{
		"lib_ties":                rounds(plan.Round{Width: 18, Bank: 32}),
		"lib_wide_unique":         rounds(plan.Round{Width: 29, Bank: 32}, plan.Round{Width: 60, Bank: 64}),
		"serve_topk_cold/offset0": nil,
	}
	for _, s := range planFlipShapes() {
		pin, ok := pins[s.name]
		if !ok {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			tbl := planFlipTable(b, s.skew, false)
			opts := Options{Massaging: true, Rho: -1, MaxPlans: 8192, Workers: s.workers, Limit: s.limit, Offset: s.offset}
			choice, err := planFlipChoice(tbl, s.q, opts)
			if err != nil {
				b.Fatal(err)
			}
			if pin != nil {
				choice.Plan = *pin
			}
			opts.PlanOverride = &choice
			b.ResetTimer()
			var filter, massage, sort, lookup, scan, agg []time.Duration
			for i := 0; i < b.N; i++ {
				res, err := RunContext(context.Background(), tbl, s.q, opts)
				if err != nil {
					b.Fatal(err)
				}
				t := res.Timing
				filter = append(filter, t.FilterScan)
				massage, sort, lookup = append(massage, t.MCS.Massage), append(sort, t.MCS.Sort), append(lookup, t.MCS.Lookup)
				scan, agg = append(scan, t.MCS.Scan), append(agg, t.Aggregate)
			}
			for _, m := range []struct {
				unit string
				ds   []time.Duration
			}{{"filter-ms", filter}, {"massage-ms", massage}, {"sort-ms", sort}, {"lookup-ms", lookup}, {"scan-ms", scan}, {"agg-ms", agg}} {
				b.ReportMetric(float64(median(m.ds))/1e6, m.unit)
			}
			b.Logf("%s: order %v plan %v", s.name, choice.ColOrder, choice.Plan)
		})
	}
}
