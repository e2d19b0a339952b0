package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/byteslice"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/table"
)

// BenchmarkPlanFlip re-derives the plan table of the four benchmark
// workloads (bench/mcsperf, BENCHMARK.json) under the cost model that
// ships: per query shape it searches a plan with costmodel.Builtin()
// the way the workload does (no ρ cutoff, 8,192 candidates), then times
// that plan interleaved against PlanOverride alternatives over the same
// seeded 2^19-row TPC-H table. Run it after any change to the model:
//
//	make plan-flip
//	go test -run '^$' -bench PlanFlip -benchtime 21x ./internal/engine/
//
// One op runs every plan of the shape once, the order rotating between
// ops so drift hits them alike, and checks that every plan returns the
// same rows. Reported per plan: the median wall time of RunContext
// (<label>-p50-ms) and, for the chosen plan, the model's predicted
// multi-column-sort time over the measured one (chosen-pred/meas). The
// log line names each plan. Plans of one column order must return
// byte-identical results. The alternatives are the plans the model
// chose while it priced the paper's SWAR merge-sort (before the radix
// terms) and the one-round plan where the sort clause fits 64 bits.
func BenchmarkPlanFlip(b *testing.B) {
	for _, s := range planFlipShapes() {
		b.Run(s.name, func(b *testing.B) {
			tbl := planFlipTable(b, s.skew, s.shard)
			opts := Options{Massaging: true, Rho: -1, MaxPlans: 8192, Workers: s.workers, Limit: s.limit, Offset: s.offset}
			if s.shard {
				// The coordinator pins the column order its full-table
				// search chose; each shard searches its widths under it.
				full := planFlipTable(b, s.skew, false)
				c, err := planFlipChoice(full, s.q, opts)
				if err != nil {
					b.Fatal(err)
				}
				opts.FixedColOrder = c.ColOrder
			}
			chosen, err := planFlipChoice(tbl, s.q, opts)
			if err != nil {
				b.Fatal(err)
			}
			plans := []planFlipPlan{{"chosen", chosen}}
			for _, alt := range s.alts(chosen) {
				if !slices.ContainsFunc(plans, func(p planFlipPlan) bool { return samePlan(p.c, alt.c) }) {
					plans = append(plans, alt)
				}
			}
			times := make([][]time.Duration, len(plans))
			var ratio []float64
			for i := 0; i < b.N; i++ {
				// A GROUP BY emits its keys in the plan's column order, so
				// results are compared among plans of one order.
				refs := map[string]*Result{}
				for k := range plans {
					j := (i + k) % len(plans)
					o := opts
					o.PlanOverride = &plans[j].c
					start := time.Now()
					res, err := RunContext(context.Background(), tbl, s.q, o)
					if err != nil {
						b.Fatal(err)
					}
					times[j] = append(times[j], time.Since(start))
					if j == 0 {
						ratio = append(ratio, res.CostRatio())
					}
					order := fmt.Sprint(plans[j].c.ColOrder)
					if ref := refs[order]; ref == nil {
						refs[order] = res
					} else if !sameRows(ref, res) {
						b.Fatalf("plan %s returns other rows than a plan of its column order", plans[j].label)
					}
				}
			}
			line := fmt.Sprintf("%s:", s.name)
			for j, p := range plans {
				p50 := float64(median(times[j])) / 1e6
				b.ReportMetric(p50, p.label+"-p50-ms")
				line += fmt.Sprintf("  %s %v %v p50 %.2f ms;", p.label, p.c.ColOrder, p.c.Plan, p50)
			}
			slices.Sort(ratio)
			b.ReportMetric(ratio[len(ratio)/2], "chosen-pred/meas")
			b.Log(line)
		})
	}
}

// planFlipShape is one workload's query as the engine sees it.
type planFlipShape struct {
	name    string
	skew    bool // tpch_skew (zipf) instead of tpch_wide
	shard   bool // one shard's slice: the first third of the table
	workers int
	limit   *int
	offset  int
	q       Query
	// paper is the plan the model chose while it priced the paper's
	// SWAR merge-sort.
	paper planner.Choice
}

type planFlipPlan struct {
	label string
	c     planner.Choice
}

// alts lists the alternatives timed against the chosen plan: the paper
// model's plan, and one round when the clause fits a 64-bit bank.
func (s planFlipShape) alts(chosen planner.Choice) []planFlipPlan {
	out := []planFlipPlan{{"paper-model", s.paper}}
	if w := chosen.Plan.TotalWidth(); w <= plan.MaxWidth {
		one := plan.Plan{Rounds: []plan.Round{{Width: w, Bank: plan.MinBankFor(w)}}}
		out = append(out, planFlipPlan{"one-round", planner.Choice{ColOrder: chosen.ColOrder, Plan: one}})
	}
	return out
}

func planFlipShapes() []planFlipShape {
	page := 100
	rounds := func(rs ...plan.Round) plan.Plan { return plan.Plan{Rounds: rs} }
	topk := Query{ID: "serve_topk_cold", Kind: planner.PartitionBy,
		SortCols: []SortCol{{Name: "supp_nation"}, {Name: "cust_nation"}, {Name: "p_brand"}, {Name: "o_orderdate"}},
		Window:   &Window{OrderCol: "l_extendedprice", Desc: true}}
	topkPaper := planner.Choice{ColOrder: []int{3, 0, 1, 2, 4}, Plan: rounds(plan.Round{Width: 16, Bank: 16}, plan.Round{Width: 32, Bank: 32})}
	return []planFlipShape{
		{
			name: "lib_wide_unique", workers: 2,
			q: Query{ID: "lib_wide_unique", Kind: planner.OrderBy,
				SortCols: []SortCol{{Name: "o_totalprice", Desc: true}, {Name: "o_orderdate"},
					{Name: "c_name"}, {Name: "c_custkey"}, {Name: "l_orderkey"}},
				Filters: []Filter{{Col: "l_shipdate", Op: byteslice.LE, Const: 2300}},
				Agg:     &Agg{Kind: Sum, Col: "l_quantity"}},
			paper: planner.Choice{ColOrder: []int{0, 1, 2, 3, 4}, Plan: rounds(plan.Round{Width: 29, Bank: 32}, plan.Round{Width: 60, Bank: 64})},
		},
		{
			name: "lib_ties", skew: true, workers: 2,
			q: Query{ID: "lib_ties", Kind: planner.GroupBy,
				SortCols: []SortCol{{Name: "supp_nation"}, {Name: "cust_nation"}, {Name: "l_year"}, {Name: "p_brand"}},
				Agg:      &Agg{Kind: Sum, Col: "l_extendedprice"}},
			paper: planner.Choice{ColOrder: []int{0, 1, 3, 2}, Plan: rounds(plan.Round{Width: 16, Bank: 16}, plan.Round{Width: 2, Bank: 16})},
		},
		{name: "serve_topk_cold/offset0", workers: 1, limit: &page, q: topk, paper: topkPaper},
		{name: "serve_topk_cold/offset25500", workers: 1, limit: &page, offset: 25500, q: topk, paper: topkPaper},
		{
			name: "shard3_window_full", shard: true, workers: 1,
			q: Query{ID: "shard3_window_full", Kind: planner.PartitionBy,
				SortCols: []SortCol{{Name: "supp_nation"}, {Name: "l_year"}},
				Window:   &Window{OrderCol: "l_extendedprice", Desc: true}},
			paper: planner.Choice{ColOrder: []int{0, 1, 2}, Plan: rounds(plan.Round{Width: 15, Bank: 16}, plan.Round{Width: 14, Bank: 16})},
		},
	}
}

// planFlipChoice is the plan the workload's search picks for q over t.
func planFlipChoice(t *table.Table, q Query, opts Options) (planner.Choice, error) {
	b, err := Bind(t, q)
	if err != nil {
		return planner.Choice{}, err
	}
	sel, err := b.Select(context.Background(), 1)
	if err != nil {
		return planner.Choice{}, err
	}
	c, _, err := b.ChoosePlan(context.Background(), sel.Count(), opts)
	return c, err
}

var planFlipTables sync.Map // "skew/shard" → *table.Table

// planFlipTable is mcsperf's seeded table (seed 7, 2^19 rows), or the
// first of its three shard slices.
func planFlipTable(b testing.TB, skew, shard bool) *table.Table {
	b.Helper()
	key := fmt.Sprint(skew, shard)
	if t, ok := planFlipTables.Load(key); ok {
		return t.(*table.Table)
	}
	t, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 19, Seed: 7, Skew: skew})
	if err != nil {
		b.Fatal(err)
	}
	if shard {
		t = t.Slice(0, t.N/3)
	}
	planFlipTables.Store(key, t)
	return t
}

func samePlan(a, b planner.Choice) bool {
	return slices.Equal(a.ColOrder, b.ColOrder) && a.Plan.Equal(b.Plan)
}

// sameRows compares two results of one query byte for byte.
func sameRows(a, b *Result) bool {
	if !slices.Equal(a.RowOids, b.RowOids) || !slices.Equal(a.Ranks, b.Ranks) || !slices.Equal(a.Aggregates, b.Aggregates) {
		return false
	}
	return slices.EqualFunc(a.GroupKeys, b.GroupKeys, slices.Equal[[]uint64])
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
