package planner

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/mergesort/paper"
	"repro/internal/plan"
)

// roga runs the search under context.Background(), where it cannot
// fail: these tests exercise plan choice, not cancellation.
func roga(s *Search) Choice {
	c, _ := ROGAContext(context.Background(), s)
	return c
}

func uniformStats(seed int64, n int, widths, distinct []int) costmodel.Stats {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		seen := make(map[uint64]bool, distinct[i])
		vals := make([]uint64, 0, distinct[i])
		for len(vals) < distinct[i] {
			v := rng.Uint64() & column.Mask(w)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		codes := make([]uint64, n)
		for r := range codes {
			codes[r] = vals[rng.Intn(len(vals))]
		}
		cols[i] = codes
	}
	return costmodel.CollectStats(cols, widths)
}

func TestROGABeatsOrMatchesBaseline(t *testing.T) {
	m := costmodel.Builtin()
	cases := [][2][]int{
		{{10, 17}, {1 << 10, 1 << 13}},
		{{15, 31}, {1 << 13, 1 << 13}},
		{{17, 33}, {1 << 13, 1 << 13}},
		{{48, 48}, {1 << 13, 1 << 13}},
		{{5, 9, 17}, {20, 300, 60000}},
	}
	for _, c := range cases {
		// ρ = 5% is generous (production uses 0.1%) while keeping the
		// wide-W cases from enumerating 3^12 bank combinations.
		s := &Search{Model: m, Stats: uniformStats(1, 1<<18, c[0], c[1]), Kind: OrderBy, Rho: 0.05}
		base := s.Baseline()
		got := roga(s)
		if got.Est > base.Est {
			t.Errorf("widths %v: ROGA est %.3g worse than baseline %.3g (plan %v)",
				c[0], got.Est, base.Est, got.Plan)
		}
		if err := got.Plan.Validate(s.Stats.TotalWidth()); err != nil {
			t.Errorf("widths %v: invalid ROGA plan: %v", c[0], err)
		}
	}
}

func TestROGAFindsStitchForEx1(t *testing.T) {
	// Ex1 (10-bit + 17-bit): the single-round 27/[32] stitch must beat
	// P0, and ROGA must return a plan at least as good as the stitch.
	m := costmodel.Builtin()
	s := &Search{Model: m, Stats: uniformStats(2, 1<<18, []int{10, 17}, []int{1 << 10, 1 << 13}), Kind: OrderBy, Rho: -1}
	stitch := plan.Plan{Rounds: []plan.Round{{Width: 27, Bank: 32}}}
	got := roga(s)
	if got.Est > m.TMCS(stitch, s.Stats) {
		t.Errorf("ROGA plan %v (%.3g) worse than stitch (%.3g)",
			got.Plan, got.Est, m.TMCS(stitch, s.Stats))
	}
	// The exact winning shape depends on the model constants (with a
	// cheap small-sort regime a bit-borrow plan can edge out the
	// stitch), but massaging must beat P0 — the figure's headline.
	if got.Plan.Equal(plan.ColumnAtATime([]int{10, 17})) {
		t.Errorf("ROGA stayed on P0 for Ex1")
	}
}

func TestROGAAvoidsRecklessStitchForEx2(t *testing.T) {
	// Ex2 (15-bit + 31-bit): under the paper kernel, whose 64-bit bank
	// sorts the fewest lanes per instruction, stitching into 46/[64] is
	// worse than P0; ROGA must not return the stitch-all plan. (The
	// radix kernel has no bank-level parallelism, and there the stitch
	// wins, as fig3b's note says.)
	m := paperModel(0)
	s := &Search{Model: m, Stats: uniformStats(3, 1<<18, []int{15, 31}, []int{1 << 13, 1 << 13}), Kind: OrderBy, Rho: -1}
	got := roga(s)
	if len(got.Plan.Rounds) == 1 && got.Plan.Rounds[0].Bank == 64 {
		t.Errorf("ROGA picked the reckless stitch-all: %v", got.Plan)
	}
}

func TestGroupByPermutations(t *testing.T) {
	// With free column order, a narrow selective column first can be
	// better; at minimum the search must never do worse than ORDER BY.
	m := costmodel.Builtin()
	st := uniformStats(4, 1<<16, []int{24, 4}, []int{60000, 16})
	fixed := roga(&Search{Model: m, Stats: st, Kind: OrderBy, Rho: -1})
	free := roga(&Search{Model: m, Stats: st, Kind: GroupBy, Rho: -1})
	if free.Est > fixed.Est {
		t.Errorf("free-order est %.3g worse than fixed-order %.3g", free.Est, fixed.Est)
	}
	if len(free.ColOrder) != 2 {
		t.Errorf("ColOrder = %v", free.ColOrder)
	}
}

func TestROGAFixedOrder(t *testing.T) {
	m := costmodel.Builtin()
	st := uniformStats(4, 1<<16, []int{24, 4, 9}, []int{60000, 16, 300})

	// Pinning the order a free search would choose must reproduce the
	// free search's choice exactly — this is the sharded coordinator's
	// contract: it searches once on full-table stats and replays the
	// winning order on every shard.
	free := roga(&Search{Model: m, Stats: st, Kind: GroupBy, Rho: -1, MaxPlans: 4096})
	pinned := roga(&Search{Model: m, Stats: st, Kind: GroupBy, Rho: -1, MaxPlans: 4096,
		FixedOrder: append([]int(nil), free.ColOrder...)})
	if !equalOrder(pinned.ColOrder, free.ColOrder) {
		t.Errorf("pinned ColOrder %v != free ColOrder %v", pinned.ColOrder, free.ColOrder)
	}
	// Output bytes depend only on the column order, not the round
	// decomposition, so the pinned search may legitimately pick a
	// different Plan — but never a worse estimate than the free winner
	// (it searches the winning order whole).
	if pinned.Est > free.Est {
		t.Errorf("pinned est %.6g worse than free est %.6g", pinned.Est, free.Est)
	}

	// Any pinned order — even one the free search would reject — must
	// come back verbatim, under a budget too small for one order (the
	// first order is always searched) and a large one.
	for _, mp := range []int{1, 4096} {
		for _, order := range [][]int{{2, 0, 1}, {1, 2, 0}, {0, 1, 2}} {
			got := roga(&Search{Model: m, Stats: st, Kind: GroupBy, Rho: -1, MaxPlans: mp,
				FixedOrder: order})
			if !equalOrder(got.ColOrder, order) {
				t.Errorf("MaxPlans %d FixedOrder %v: got ColOrder %v", mp, order, got.ColOrder)
			}
			if err := got.Plan.Validate(st.TotalWidth()); err != nil {
				t.Errorf("FixedOrder %v: invalid plan: %v", order, err)
			}
		}
	}
}

func equalOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMaxRoundsBoundRespected: nothing caps the search's round count,
// but on the paper's W=59 example its optimum stays within Lemma 2's
// bound, as the paper says an optimum does.
func TestMaxRoundsBoundRespected(t *testing.T) {
	m := costmodel.Builtin()
	st := uniformStats(9, 1<<14, []int{17, 30, 12}, []int{1 << 10, 1 << 12, 1 << 8}) // the paper's W=59 example
	s := &Search{Model: m, Stats: st, Kind: OrderBy, Rho: -1}
	got := roga(s)
	if len(got.Plan.Rounds) > plan.MaxRounds(59) {
		t.Errorf("plan has %d rounds, bound is %d", len(got.Plan.Rounds), plan.MaxRounds(59))
	}
}

func TestStopwatchRho(t *testing.T) {
	// A tiny ρ must stop the search quickly and still return a valid
	// plan: the first order's optimum at worst.
	m := costmodel.Builtin()
	st := uniformStats(10, 1<<14, []int{20, 20, 19}, []int{1 << 10, 1 << 10, 1 << 10})
	s := &Search{Model: m, Stats: st, Kind: GroupBy, Rho: 1e-9}
	got := roga(s)
	if err := got.Plan.Validate(59); err != nil {
		t.Fatalf("invalid plan under tight rho: %v", err)
	}
}

// TestRhoNeverEndsTheFirstOrder: ρ is read between column orders only,
// so an ORDER BY search, which has one, returns the same choice under
// any ρ — here one that has expired before the search starts.
func TestRhoNeverEndsTheFirstOrder(t *testing.T) {
	st := uniformStats(9, 1<<14, []int{17, 30, 12}, []int{1 << 10, 1 << 12, 1 << 8})
	s := &Search{Model: costmodel.Builtin(), Stats: st, Kind: OrderBy, Rho: 1e-12}
	clocked := roga(s)
	s.Rho = -1
	if want := roga(s); fmt.Sprint(clocked) != fmt.Sprint(want) {
		t.Errorf("ρ 1e-12 chose %v, no ρ %v", clocked, want)
	}
	if clocked.Plan.Equal(s.Baseline().Plan) {
		t.Errorf("ρ 1e-12 stopped at P0 %v", clocked.Plan)
	}
}

func TestPermutationsCount(t *testing.T) {
	count := 0
	Permutations(4, func(p []int) bool { count++; return true })
	if count != 24 {
		t.Errorf("4! = %d, want 24", count)
	}
	// Early abort.
	count = 0
	Permutations(4, func(p []int) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("aborted enumeration ran %d times", count)
	}
}

// paperModel is Builtin with the paper kernel's sort term plugged in,
// as the figure experiments price plans, at the given OVC merge
// discount.
func paperModel(ovcDiscount float64) *costmodel.Model {
	pm := paper.DefaultModel()
	pm.OVCMergeDiscount = ovcDiscount
	m := costmodel.Builtin()
	m.Sort = pm.Sort
	return m
}

func TestROGAExploitsOVCDiscount(t *testing.T) {
	// Dup-heavy columns (16×4 distinct value combinations over 2^20
	// rows) make the big stitched sort almost all ties, so the
	// offset-value-coded merge discount erases most of its
	// out-of-cache term. Without the discount the model prefers
	// sorting column-at-a-time; with it, the one-round stitch wins —
	// and ROGA must follow the model both times.
	st := uniformStats(31, 1<<20, []int{15, 31}, []int{16, 4})
	m0 := paperModel(0)
	m9 := paperModel(0.9)

	stitch := plan.Plan{Rounds: []plan.Round{{Width: 46, Bank: 64}}}
	byCol := plan.Plan{Rounds: []plan.Round{{Width: 15, Bank: 16}, {Width: 31, Bank: 32}}}
	if !(m0.TMCS(byCol, st) < m0.TMCS(stitch, st)) {
		t.Fatalf("undiscounted model must prefer column-at-a-time: %.3g vs %.3g",
			m0.TMCS(byCol, st), m0.TMCS(stitch, st))
	}
	if !(m9.TMCS(stitch, st) < m9.TMCS(byCol, st)) {
		t.Fatalf("discounted model must prefer the stitch: %.3g vs %.3g",
			m9.TMCS(stitch, st), m9.TMCS(byCol, st))
	}

	g0 := roga(&Search{Model: m0, Stats: st, Kind: OrderBy, Rho: -1})
	g9 := roga(&Search{Model: m9, Stats: st, Kind: OrderBy, Rho: -1})
	if g0.Plan.Equal(g9.Plan) {
		t.Errorf("discount did not shift the ROGA plan: both chose %v", g0.Plan)
	}
	if len(g9.Plan.Rounds) != 1 {
		t.Errorf("discounted ROGA plan %v, want the one-round stitch", g9.Plan)
	}
	if g9.Est > m9.TMCS(byCol, st) {
		t.Errorf("discounted ROGA est %.3g worse than column-at-a-time %.3g",
			g9.Est, m9.TMCS(byCol, st))
	}
}
