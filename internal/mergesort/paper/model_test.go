package paper

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/plan"
)

// The paper kernel's T_sort (Model.Sort) on its own and plugged into
// costmodel.Model.Sort, as the figure experiments price plans.

// pricedBy returns costmodel.Builtin with pm's sort term plugged in.
func pricedBy(pm *Model) *costmodel.Model {
	m := costmodel.Builtin()
	m.Sort = pm.Sort
	return m
}

// uniformStats mirrors the paper's synthetic setup: each w-bit column
// holds `distinct` values drawn uniformly from the full [0, 2^w) domain.
func uniformStats(n int, widths, distinct []int) costmodel.Stats {
	rng := rand.New(rand.NewSource(7))
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

func TestTSortOneShape(t *testing.T) {
	pm, m := DefaultModel(), costmodel.Builtin()
	// Singleton groups cost nothing (paper: one-tuple groups skip sorting).
	if pm.Sort(m, 1, 32, 32, 0) != 0 {
		t.Error("singleton sort must be free")
	}
	// Below the kernel's insertion threshold the shared insertion regime
	// applies.
	if got, want := pm.Sort(m, insertionThreshold-1, 64, 64, 0), m.TSmall(insertionThreshold-1); got != want {
		t.Errorf("below the insertion threshold: %v, want %v", got, want)
	}
	// A wider bank must cost more for the same n.
	n := 100000.0
	if !(pm.Sort(m, n, 16, 16, 0) < pm.Sort(m, n, 32, 32, 0) && pm.Sort(m, n, 32, 32, 0) < pm.Sort(m, n, 64, 64, 0)) {
		t.Error("per-bank sort costs must increase with bank width")
	}
	// Out-of-cache passes kick in for large n.
	if OutOfCachePasses(m.L2, 1e7, 64) == 0 {
		t.Error("10M 64-bit elements must be out of cache for a 2MiB L2")
	}
	if OutOfCachePasses(m.L2, 1000, 16) != 0 {
		t.Error("1000 elements must fit in cache")
	}
}

func TestTSortOneDupDiscount(t *testing.T) {
	m := costmodel.Builtin()
	pm := DefaultModel()
	pm.OVCMergeDiscount = 0.5
	n := float64(1 << 20) // out of cache for every bank
	sortOne := func(pm *Model, n float64, dup float64) float64 { return pm.Sort(m, n, 32, 32, dup) }

	// dup = 0 is the undiscounted sort; so is a zero discount.
	pm0 := DefaultModel() // OVCMergeDiscount zero
	if got, want := sortOne(pm, n, 0), sortOne(pm0, n, 0); got != want {
		t.Errorf("dup=0: %v, want %v", got, want)
	}
	if got, want := sortOne(pm0, n, 1), sortOne(pm0, n, 0); got != want {
		t.Errorf("zero discount: %v, want %v", got, want)
	}

	// The discount removes exactly disc·dup of the out-of-cache term.
	bc := pm.Bank[32]
	ooc := bc.COutOfCache * n * OutOfCachePasses(m.L2, n, 32)
	if ooc <= 0 {
		t.Fatal("test input must be out of cache")
	}
	got := sortOne(pm, n, 1)
	want := sortOne(pm, n, 0) - 0.5*ooc
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("dup=1: %v, want %v", got, want)
	}
	// Monotone in dup, and clamped beyond 1.
	if !(sortOne(pm, n, 0.9) < sortOne(pm, n, 0.5)) {
		t.Error("cost must decrease with dup fraction")
	}
	if sortOne(pm, n, 5) != sortOne(pm, n, 1) {
		t.Error("dup must clamp at 1")
	}
	// The in-cache regime ignores duplicates entirely.
	if sortOne(pm, 10, 1) != sortOne(pm, 10, 0) {
		t.Error("small-sort regime must not be discounted")
	}
}

// TestModelPrefersPaperPlans replays the paper's Examples with the
// paper term plugged in: the qualitative plan preferences of Section 3
// must hold.
func TestModelPrefersPaperPlans(t *testing.T) {
	m := pricedBy(DefaultModel())
	n := 1 << 20
	d := 1 << 13

	// Ex1: 10-bit + 17-bit. Stitching into 27/[32] must win over P0.
	st := uniformStats(n, []int{10, 17}, []int{1 << 10, d})
	p0 := plan.ColumnAtATime([]int{10, 17})
	stitch := plan.Plan{Rounds: []plan.Round{{Width: 27, Bank: 32}}}
	if !(m.TMCS(stitch, st) < m.TMCS(p0, st)) {
		t.Errorf("Ex1: stitch %v should beat P0 %v", m.TMCS(stitch, st), m.TMCS(p0, st))
	}

	// Ex2: 15-bit + 31-bit. The reckless stitch to 46/[64] must lose.
	st = uniformStats(n, []int{15, 31}, []int{d, d})
	p0 = plan.ColumnAtATime([]int{15, 31})
	stitch = plan.Plan{Rounds: []plan.Round{{Width: 46, Bank: 64}}}
	if !(m.TMCS(p0, st) < m.TMCS(stitch, st)) {
		t.Errorf("Ex2: P0 %v should beat stitch-all %v", m.TMCS(p0, st), m.TMCS(stitch, st))
	}

	// Ex4: 48-bit + 48-bit. Three 32/[32] rounds must beat two 48/[64].
	st = uniformStats(n, []int{48, 48}, []int{d, d})
	p0 = plan.ColumnAtATime([]int{48, 48})
	three := plan.Plan{Rounds: []plan.Round{
		{Width: 32, Bank: 32}, {Width: 32, Bank: 32}, {Width: 32, Bank: 32}}}
	if !(m.TMCS(three, st) < m.TMCS(p0, st)) {
		t.Errorf("Ex4: 3×32 %v should beat P0 %v", m.TMCS(three, st), m.TMCS(p0, st))
	}
}

// TestPaperPrefersSplitOnZipfGroupBy is the other half of costmodel's
// TestRadixPrefersOneRoundOnZipfGroupBy: on a zipf-skewed 18-bit
// GROUP BY over 2^19 rows, where the radix term prices one 32-bit round
// cheaper, this term prices the split {16/[16], 2/[16]} cheaper — the
// plan production ran before it priced the radix kernel.
func TestPaperPrefersSplitOnZipfGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{5, 5, 3, 5}
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		z := rand.NewZipf(rng, 1.2, 1, uint64(1)<<w-1)
		cols[i] = make([]uint64, 1<<16)
		for r := range cols[i] {
			cols[i][r] = z.Uint64()
		}
	}
	st := costmodel.CollectStats(cols, widths)
	st.N = 1 << 19
	one := plan.Plan{Rounds: []plan.Round{{Width: 18, Bank: 32}}}
	split := plan.Plan{Rounds: []plan.Round{{Width: 16, Bank: 16}, {Width: 2, Bank: 16}}}
	m := pricedBy(DefaultModel())
	if !(m.TMCS(split, st) < m.TMCS(one, st)) {
		t.Errorf("paper term: split %.4g, one round %.4g; want the split cheaper", m.TMCS(split, st), m.TMCS(one, st))
	}
}
