package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mergesort/paper"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/table"
)

// The paper's ROGA against the production search: the combination walk
// pinned to Algorithm 1's reference, ROGA pinned to the choices it made
// while it was the production search, and the production search pinned
// to the exhaustive minimum and to ROGA.

// The reference enumeration: Algorithm 1's combination walk and greedy
// assignment as they stood before comboWalk — every combination
// enumerated to the end and dominance tested on the whole combination.

func refForEachBankCombo(k, W int, f func(banks []int)) {
	banks := make([]int, k)
	var rec func(i, capacity int)
	rec = func(i, capacity int) {
		if i == k {
			if capacity >= W && !refDominatedCombo(banks, W) {
				f(banks)
			}
			return
		}
		for _, b := range plan.Banks {
			banks[i] = b
			if capacity+b+(k-1-i)*64 < W {
				continue
			}
			rec(i+1, capacity+b)
		}
	}
	rec(0, 0)
}

func refDominatedCombo(banks []int, W int) bool {
	k := len(banks)
	for i := 0; i+1 < k; i++ {
		maxPair := banks[i] + banks[i+1]
		if room := W - (k - 2); room < maxPair {
			maxPair = room
		}
		if maxPair <= banks[i] {
			return true
		}
	}
	return false
}

func refGreedyAssign(w *comboWalk, banks []int) (plan.Plan, bool) {
	k, W := len(banks), w.W
	if k == 1 {
		if W > banks[0] {
			return plan.Plan{}, false
		}
		return plan.Plan{Rounds: []plan.Round{{Width: W, Bank: banks[0]}}}, true
	}
	rounds := make([]plan.Round, 0, k)
	remaining := W
	bitsBefore := 0
	for i := 0; i < k-1; i++ {
		laterCap := 0
		for j := i + 1; j < k; j++ {
			laterCap += banks[j]
		}
		lo := remaining - laterCap
		if lo < 1 {
			lo = 1
		}
		hi := banks[i]
		if hi > remaining-(k-1-i) {
			hi = remaining - (k - 1 - i)
		}
		if lo > hi {
			return plan.Plan{}, false
		}
		bestA, bestCost := -1, 0.0
		for a := lo; a <= hi; a++ {
			c := w.pf.Round(bitsBefore+a, min(W-bitsBefore-a, banks[i+1]), banks[i+1]).Sort
			if bestA < 0 || c < bestCost {
				bestA, bestCost = a, c
			}
		}
		rounds = append(rounds, plan.Round{Width: bestA, Bank: banks[i]})
		remaining -= bestA
		bitsBefore += bestA
	}
	if remaining < 1 || remaining > banks[k-1] {
		return plan.Plan{}, false
	}
	rounds = append(rounds, plan.Round{Width: remaining, Bank: banks[k-1]})
	return plan.Plan{Rounds: rounds}, true
}

// TestComboWalkMatchesReferenceGreedy checks the candidate sequence, not
// just the winner: over random column shapes comboWalk yields exactly
// the plans of the reference, in its order.
func TestComboWalkMatchesReferenceGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := costmodel.Builtin()
	for iter := 0; iter < 60; iter++ {
		nCols := 1 + rng.Intn(3)
		widths, distinct := make([]int, nCols), make([]int, nCols)
		for i := range widths {
			widths[i] = 1 + rng.Intn(24)
			distinct[i] = 1 + rng.Intn(1<<uint(min(widths[i], 12)))
		}
		st := uniformStats(int64(iter), 1<<12, widths, distinct)
		switch iter % 3 {
		case 1:
			st.LimitRows = 1 + rng.Intn(st.N)
		case 2:
			st.LimitGroups = 1 + rng.Intn(40)
		}
		W := st.TotalWidth()
		w := &comboWalk{pf: m.Profile(st), W: W, after: make([]float64, len(plan.Banks)*(W+1))}
		for k := 1; k <= plan.MaxRounds(W); k++ {
			var want []string
			refForEachBankCombo(k, W, func(banks []int) {
				if p, ok := refGreedyAssign(w, banks); ok {
					want = append(want, p.String())
				}
			})
			var got []string
			w.forEachCombo(k, func() bool {
				if w.assign() {
					got = append(got, plan.Plan{Rounds: w.rounds}.String())
				}
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("widths %v k=%d:\n got  %v\n want %v", widths, k, got, want)
			}
		}
	}
}

// tpchTables are bench/mcsperf's two tables: 2^19 TPC-H rows, seed 7,
// uniform and zipf-skewed.
var tpchTables [2]struct {
	once sync.Once
	tbl  *table.Table
	err  error
}

// tpchStats are the statistics of the named columns of one of them over
// n rows.
func tpchStats(tb testing.TB, skew bool, n int, names ...string) costmodel.Stats {
	tb.Helper()
	t := &tpchTables[0]
	if skew {
		t = &tpchTables[1]
	}
	t.once.Do(func() {
		t.tbl, t.err = datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 19, Seed: 7, Skew: skew})
	})
	if t.err != nil {
		tb.Fatal(t.err)
	}
	st := costmodel.Stats{N: n}
	for _, name := range names {
		cs, err := t.tbl.Stats(name)
		if err != nil {
			tb.Fatal(err)
		}
		st.Cols = append(st.Cols, cs)
	}
	return st
}

// topKColumns are serve_topk_cold's sort clause, the window's ORDER BY
// column last.
var topKColumns = []string{"supp_nation", "cust_nation", "p_brand", "o_orderdate", "l_extendedprice"}

// TestROGAGolden pins the paper's ROGA to the choices it made as the
// production search (internal/planner's plan golden before the search
// became a shortest path): the same order and plan, and the same
// estimate up to the last bits, which moved when TMCS began adding the
// massage term per round.
func TestROGAGolden(t *testing.T) {
	pm := paper.DefaultModel()
	pm.OVCMergeDiscount = 0.9
	m9 := costmodel.Builtin()
	m9.Sort = pm.Sort
	pinned := &planner.Search{Model: costmodel.Builtin(), Stats: tpchStats(t, false, 1<<19, topKColumns...), Kind: planner.PartitionBy,
		FixedTail: 1, Rho: -1, MaxPlans: 8192, FixedOrder: []int{2, 0, 3, 1, 4}}
	pinned.Stats.LimitRows = 3700
	for _, c := range []struct {
		name        string
		s           *planner.Search
		order, plan string
		estBits     uint64
	}{
		{"topk/unlimited", &planner.Search{Model: costmodel.Builtin(), Stats: tpchStats(t, false, 1<<19, topKColumns...), Kind: planner.PartitionBy, FixedTail: 1, Rho: -1, MaxPlans: 8192},
			"[0 1 2 3 4]", "{R1: 23/[32], R2: 25/[32]}", 0x4176fefe1aa318df},
		{"topk/fixedorder", pinned, "[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 5/[16], R5: 21/[32]}", 0x4154d5d1c2a05abd},
		{"orderby", &planner.Search{Model: costmodel.Builtin(), Kind: planner.OrderBy, Rho: -1,
			Stats: uniformStats(9, 1<<14, []int{17, 30, 12}, []int{1 << 10, 1 << 12, 1 << 8})}, "[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae},
		{"orderby/ovc", &planner.Search{Model: m9, Kind: planner.OrderBy, Rho: -1,
			Stats: uniformStats(31, 1<<20, []int{15, 31}, []int{16, 4})}, "[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851eb},
	} {
		got := paperROGA(c.s)
		want := math.Float64frombits(c.estBits)
		if fmt.Sprint(got.ColOrder) != c.order || got.Plan.String() != c.plan || math.Abs(got.Est-want) > 1e-12*want {
			t.Errorf("%s: ROGA chose %v %v est %v, want %s %s est %v", c.name, got.ColOrder, got.Plan, got.Est, c.order, c.plan, want)
		}
	}
}

// optimum is the least Optimal over the column orders s allows.
func optimum(s *planner.Search) float64 {
	best := math.Inf(1)
	s.Orders(func(order []int) bool {
		_, est := s.Model.Profile(s.Stats.Permute(order)).Optimal()
		best = min(best, est)
		return true
	})
	return best
}

// enumeratedMin is the least estimate of enumerate's population, which
// must be exhaustive, with every round in every bank that holds it:
// enumerate gives each round its narrowest bank, but under the radix
// term a wider one can be cheaper (a 9–11-bit key in bank 32 is one
// 11-bit digit, in bank 16 two 8-bit ones).
func enumeratedMin(t *testing.T, s *planner.Search, budget int) float64 {
	t.Helper()
	pop, exact := enumerate(s, enumerateOptions{Budget: budget})
	if !exact {
		t.Fatalf("population of %+v exceeds %d", s.Stats, budget)
	}
	estimate, best := estimator(s), math.Inf(1)
	var banks func(order []int, rounds []plan.Round, i int)
	banks = func(order []int, rounds []plan.Round, i int) {
		if i == len(rounds) {
			best = min(best, estimate(order, plan.Plan{Rounds: rounds}))
			return
		}
		for _, b := range plan.Banks {
			if rounds[i].Width <= b {
				rounds[i].Bank = b
				banks(order, rounds, i+1)
			}
		}
	}
	for _, c := range pop {
		banks(c.ColOrder, c.Plan.Rounds, 0)
	}
	return best
}

// population is the size of enumerate's population for s.
func population(s *planner.Search) float64 {
	orders := 1
	for i := 2; i <= s.FreePrefix(); i++ {
		orders *= i
	}
	W := s.Stats.TotalWidth()
	return countCompositions(W, plan.MaxRounds(W)) * float64(orders)
}

// TestOptimalIsTheExhaustiveMinimum: the production search's per-order
// optimum, minimised over the orders, equals bit for bit the least
// estimate of the exhaustively enumerated plan population, each plan in
// every bank assignment — on the plan
// golden's searches whose population fits (lib_ties' GROUP BY and
// shard3_window_full's pin search), and on seeded random statistics of
// 1–4 columns of 1–64 bits, limited or not, priced with the radix term
// or the paper kernel's.
func TestOptimalIsTheExhaustiveMinimum(t *testing.T) {
	const budget = 1 << 14
	searches := []*planner.Search{
		{Model: costmodel.Builtin(), Kind: planner.GroupBy, Stats: tpchStats(t, true, 1<<19, "supp_nation", "cust_nation", "l_year", "p_brand")},
		{Model: costmodel.Builtin(), Kind: planner.PartitionBy, FixedTail: 1, Stats: tpchStats(t, false, 1<<19, "supp_nation", "l_year", "l_extendedprice")},
	}
	rng := rand.New(rand.NewSource(54))
	models := []*costmodel.Model{costmodel.Builtin(), paperPriced()}
	for len(searches) < 2+60 {
		m := 1 + rng.Intn(4)
		widths, distinct := make([]int, m), make([]int, m)
		for i := range widths {
			widths[i] = 1 + rng.Intn(64)
			distinct[i] = 1 + rng.Intn(1<<min(widths[i], 14))
		}
		s := &planner.Search{Model: models[len(searches)%2], Kind: planner.ClauseKind(rng.Intn(3)), Stats: uniformStats(rng.Int63(), 1<<12, widths, distinct)}
		if population(s) > budget {
			continue
		}
		s.Stats.N = 1 << (8 + rng.Intn(13))
		switch rng.Intn(3) {
		case 1:
			s.Stats.LimitRows = 1 + rng.Intn(s.Stats.N)
		case 2:
			s.Stats.LimitGroups = 1 + rng.Intn(1000)
		}
		searches = append(searches, s)
	}
	for i, s := range searches {
		if got, want := optimum(s), enumeratedMin(t, s, budget); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("search %d (widths %v, N %d, limits %d/%d, kind %v): Optimal %v, exhaustive minimum %v",
				i, s.Stats.Cols, s.Stats.N, s.Stats.LimitRows, s.Stats.LimitGroups, s.Kind, got, want)
		}
	}
}

// TestOptimalNeverAboveROGA: on any one column order the production
// search's optimum is at most the paper's ROGA's pick, over seeded
// random statistics of 1–4 columns of 1–64 bits, limited or not, priced
// with the radix term or the paper kernel's. ROGA runs at a budget of
// 4,096 candidates, or its bank walk over a 200-bit clause would take
// minutes.
func TestOptimalNeverAboveROGA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []*costmodel.Model{costmodel.Builtin(), paperPriced()}
	for iter := 0; iter < 80; iter++ {
		m := 1 + rng.Intn(4)
		widths, distinct := make([]int, m), make([]int, m)
		for i := range widths {
			widths[i] = 1 + rng.Intn(64)
			distinct[i] = 1 + rng.Intn(1<<min(widths[i], 14))
		}
		st := uniformStats(rng.Int63(), 1<<12, widths, distinct)
		st.N = 1 << (8 + rng.Intn(13))
		switch rng.Intn(3) {
		case 1:
			st.LimitRows = 1 + rng.Intn(st.N)
		case 2:
			st.LimitGroups = 1 + rng.Intn(1000)
		}
		order := rng.Perm(m)
		s := &planner.Search{Model: models[iter%2], Stats: st, Kind: planner.GroupBy, Rho: -1, MaxPlans: 4096, FixedOrder: order}
		_, est := s.Model.Profile(st.Permute(order)).Optimal()
		if r := paperROGA(s); est > r.Est {
			t.Errorf("iter %d (widths %v, order %v): Optimal %v above ROGA's %v %v", iter, widths, order, est, r.Plan, r.Est)
		}
	}
}

// BenchmarkCatalogSearch runs every internal/workloads query's plan
// search over its tables (2^19 rows, seed 7), at the daemon's default
// budget and at bench/mcsperf's, ρ off: the production search (search)
// against the paper's ROGA (roga). est/op is the chosen plan's
// estimate in ns, edges/op the round costs the production search
// counted against MaxPlans.
func BenchmarkCatalogSearch(b *testing.B) {
	items, err := allItems(Config{TableRows: 1 << 19, Seed: 7}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	obs.Enable()
	defer obs.Disable()
	edges := obs.NewCounter("planner.plans_costed")
	for _, item := range items {
		bound, err := engine.Bind(item.Table, item.Query)
		if err != nil {
			b.Fatal(err)
		}
		sel, err := bound.Select(ctx)
		if err != nil {
			b.Fatal(err)
		}
		st := costmodel.Stats{N: sel.Count()}
		for _, sc := range bound.Sort {
			cs, err := item.Table.Stats(sc.Name)
			if err != nil {
				b.Fatal(err)
			}
			st.Cols = append(st.Cols, cs)
		}
		for _, budget := range []int{1 << 16, 8192} {
			s := engine.NewSearch(item.Query, st, engine.Options{Rho: -1, MaxPlans: budget})
			for _, searcher := range []struct {
				name   string
				search func(context.Context, *planner.Search) (planner.Choice, error)
			}{{"search", planner.ROGAContext}, {"roga", roga}} {
				b.Run(fmt.Sprintf("%s/W=%d/%d/%s", item.ID, st.TotalWidth(), budget, searcher.name), func(b *testing.B) {
					var c planner.Choice
					before := edges.Value()
					for i := 0; i < b.N; i++ {
						if c, err = searcher.search(ctx, s); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(c.Est, "est/op")
					if searcher.name == "search" {
						b.ReportMetric(float64(edges.Value()-before)/float64(b.N), "edges/op")
					}
				})
			}
		}
	}
}
