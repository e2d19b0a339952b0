package mcsort

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/column"
	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/plan"
)

// execute runs ExecuteContext under context.Background(): most tests
// exercise sorting, not cancellation.
func execute(inputs []massage.Input, p plan.Plan, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), inputs, p, opts)
}

// columnAtATime runs the baseline plan P₀ (one round per column).
func columnAtATime(inputs []massage.Input, opts Options) (*Result, error) {
	widths := make([]int, len(inputs))
	for i, in := range inputs {
		widths[i] = in.Width
	}
	return execute(inputs, plan.ColumnAtATime(widths), opts)
}

// refSort returns the reference permutation: oids ordered by the tuple
// comparison ≺ of the paper (Section 3), honoring per-column direction.
func refSort(inputs []massage.Input, rows int) []uint32 {
	perm := make([]uint32, rows)
	for i := range perm {
		perm[i] = uint32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := perm[a], perm[b]
		for _, in := range inputs {
			va, vb := in.Codes[ra], in.Codes[rb]
			if va != vb {
				if in.Desc {
					return va > vb
				}
				return va < vb
			}
		}
		return false
	})
	return perm
}

// assertEquivalent checks that got orders tuples identically to want up
// to permutation within tie groups, and that got is a permutation.
func assertEquivalent(t *testing.T, inputs []massage.Input, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("perm length %d, want %d", len(got), len(want))
	}
	seen := make([]bool, len(got))
	for _, o := range got {
		if int(o) >= len(got) || seen[o] {
			t.Fatalf("invalid permutation: oid %d", o)
		}
		seen[o] = true
	}
	for i := range got {
		for _, in := range inputs {
			if in.Codes[got[i]] != in.Codes[want[i]] {
				t.Fatalf("position %d: tuple differs from reference (oid %d vs %d)",
					i, got[i], want[i])
			}
		}
	}
}

func randInputs(rng *rand.Rand, widths []int, distinct []int, rows int) []massage.Input {
	inputs := make([]massage.Input, len(widths))
	for i, w := range widths {
		codes := make([]uint64, rows)
		d := distinct[i]
		for r := range codes {
			codes[r] = uint64(rng.Intn(d)) & column.Mask(w)
		}
		inputs[i] = massage.Input{Codes: codes, Width: w}
	}
	return inputs
}

func TestColumnAtATimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := randInputs(rng, []int{5, 9, 17}, []int{7, 100, 5000}, 4000)
	res, err := columnAtATime(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, inputs, res.Perm, refSort(inputs, 4000))
}

func TestStitchedPlanMatchesReference(t *testing.T) {
	// Ex1: 10-bit + 17-bit stitched into one 27-bit round.
	rng := rand.New(rand.NewSource(2))
	inputs := randInputs(rng, []int{10, 17}, []int{1 << 10, 1 << 13}, 5000)
	p := plan.Plan{Rounds: []plan.Round{{Width: 27, Bank: 32}}}
	res, err := execute(inputs, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, inputs, res.Perm, refSort(inputs, 5000))
}

// TestLemma1Property is the paper's Lemma 1 as a property test: any
// valid repartition of the concatenated bits yields the same ordered
// oid list (up to ties) as column-at-a-time sorting.
func TestLemma1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(3)
		widths := make([]int, m)
		distinct := make([]int, m)
		total := 0
		for i := range widths {
			widths[i] = 2 + rng.Intn(18)
			distinct[i] = 2 + rng.Intn(1<<uint(min(widths[i], 8)))
			total += widths[i]
		}
		rows := 500 + rng.Intn(1500)
		inputs := randInputs(rng, widths, distinct, rows)
		// Random sort directions.
		for i := range inputs {
			inputs[i].Desc = rng.Intn(2) == 0
		}

		// Random valid plan: compose total into parts ≤ 64 with random
		// (valid) banks.
		var rounds []plan.Round
		remaining := total
		for remaining > 0 {
			w := 1 + rng.Intn(remaining)
			if w > 64 {
				w = 64
			}
			minB := plan.MinBankFor(w)
			bank := minB
			// Sometimes pick a wider-than-necessary bank; also legal.
			if rng.Intn(3) == 0 && minB < 64 {
				bank = minB * 2
			}
			rounds = append(rounds, plan.Round{Width: w, Bank: bank})
			remaining -= w
		}
		p := plan.Plan{Rounds: rounds}

		res, err := execute(inputs, p, Options{})
		if err != nil {
			t.Fatalf("trial %d plan %v: %v", trial, p, err)
		}
		want := refSort(inputs, rows)
		assertEquivalent(t, inputs, res.Perm, want)
	}
}

func TestGroupsAreMaximalTieRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inputs := randInputs(rng, []int{3, 4}, []int{4, 6}, 2000)
	res, err := columnAtATime(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Groups
	if groups[0] != 0 || int(groups[len(groups)-1]) != 2000 {
		t.Fatalf("group boundaries must span all rows: %v", groups[:min(len(groups), 5)])
	}
	tuple := func(i int32) [2]uint64 {
		oid := res.Perm[i]
		return [2]uint64{inputs[0].Codes[oid], inputs[1].Codes[oid]}
	}
	for g := 0; g+1 < len(groups); g++ {
		lo, hi := groups[g], groups[g+1]
		first := tuple(lo)
		for i := lo + 1; i < hi; i++ {
			if tuple(i) != first {
				t.Fatalf("group %d not constant", g)
			}
		}
		if g > 0 && tuple(lo-1) == first {
			t.Fatalf("group %d not maximal", g)
		}
	}
}

func TestRoundStats(t *testing.T) {
	// Two columns with known distinct counts: round 1 must produce
	// exactly d1 groups (all values present at this scale), and round 2
	// sorts only groups with more than one row.
	rng := rand.New(rand.NewSource(5))
	inputs := randInputs(rng, []int{4, 10}, []int{16, 1000}, 20000)
	res, err := columnAtATime(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].NSort != 1 {
		t.Errorf("round 1 NSort = %d, want 1", res.Rounds[0].NSort)
	}
	if res.Rounds[0].NGroup != 16 {
		t.Errorf("round 1 NGroup = %d, want 16", res.Rounds[0].NGroup)
	}
	if res.Rounds[1].NSort != 16 {
		t.Errorf("round 2 NSort = %d, want 16", res.Rounds[1].NSort)
	}
	// 20000 draws over 16·1000 combinations leave ≈ 11.4k distinct pairs.
	if res.Rounds[1].NGroup < 10500 || res.Rounds[1].NGroup > 12500 {
		t.Errorf("round 2 NGroup = %d, want ≈ 11400", res.Rounds[1].NGroup)
	}
}

func TestSingletonAndEmptyInputs(t *testing.T) {
	inputs := []massage.Input{{Codes: []uint64{}, Width: 5}}
	res, err := columnAtATime(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Perm) != 0 {
		t.Error("empty input must give empty perm")
	}

	inputs = []massage.Input{{Codes: []uint64{3}, Width: 5}}
	res, err = columnAtATime(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Perm) != 1 || res.Perm[0] != 0 {
		t.Error("singleton perm wrong")
	}
	if len(res.Groups) != 2 {
		t.Errorf("singleton groups = %v", res.Groups)
	}
}

func TestExecuteRejectsBadPlans(t *testing.T) {
	inputs := []massage.Input{{Codes: []uint64{1, 2}, Width: 10}}
	bad := plan.Plan{Rounds: []plan.Round{{Width: 11, Bank: 16}}}
	if _, err := execute(inputs, bad, Options{}); err == nil {
		t.Error("plan wider than inputs accepted")
	}
	if _, err := execute(nil, bad, Options{}); err == nil {
		t.Error("no inputs accepted")
	}
}

func TestParallelWorkersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inputs := randInputs(rng, []int{8, 12}, []int{100, 2000}, 30000)
	seq, err := columnAtATime(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := columnAtATime(inputs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, inputs, par.Perm, seq.Perm)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// paperKernel selects the paper's SWAR merge-sort for every sort of an
// execution, the way internal/experiments does.
var paperKernel = &mergesort.Params{Sort: paper.Params{}.Sort}

// TestRadixExecutorMatchesMergeSort runs the same plan with both sort
// kernels — the default (stable LSD radix) and the paper's merge-sort,
// selected through SortParams; Lemma 1 correctness must hold for either.
func TestRadixExecutorMatchesMergeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := randInputs(rng, []int{9, 21}, []int{300, 5000}, 20000)
	p := plan.Plan{Rounds: []plan.Round{{Width: 30, Bank: 32}}}
	merge, err := execute(inputs, p, Options{SortParams: paperKernel})
	if err != nil {
		t.Fatal(err)
	}
	radix, err := execute(inputs, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, inputs, radix.Perm, merge.Perm)
	if len(radix.Groups) != len(merge.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(radix.Groups), len(merge.Groups))
	}
}

func TestRadixExecutorMultiRound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inputs := randInputs(rng, []int{11, 13, 8}, []int{500, 900, 100}, 15000)
	inputs[1].Desc = true
	for name, opts := range map[string]Options{"default": {}, "paper": {SortParams: paperKernel}} {
		t.Run(name, func(t *testing.T) {
			res, err := execute(inputs, plan.ColumnAtATime([]int{11, 13, 8}), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, inputs, res.Perm, refSort(inputs, 15000))
		})
	}
}
