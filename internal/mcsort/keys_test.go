package mcsort

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/plan"
	"repro/internal/testutil"
)

// allCodes decodes every sorted position of res into m columns,
// row-major in input order.
func allCodes(res *Result, m int) []uint64 {
	pos, order := make([]int32, len(res.Perm)), make([]int, m)
	for i := range pos {
		pos[i] = int32(i)
	}
	for c := range order {
		order[c] = c
	}
	codes := make([]uint64, len(pos)*m)
	res.Codes(codes, pos, order)
	return codes
}

// checkKeys asserts what Result.Keys promise: Codes at position i is
// the input codes of row Perm[i] at every position, and SamePrefix(i, j, bits)
// agrees with a naive compare of the concatenated bits for every bits
// in [0, W], over every adjacent pair and as many random ones.
func checkKeys(t *testing.T, rng *rand.Rand, inputs []massage.Input, res *Result) {
	t.Helper()
	n := len(res.Perm)
	for r, keys := range res.Keys {
		if len(keys) != n {
			t.Fatalf("round %d keeps %d keys for %d positions", r, len(keys), n)
		}
	}
	codes := allCodes(res, len(inputs))
	for i, p := range res.Perm {
		for c, in := range inputs {
			if got := codes[i*len(inputs)+c]; got != in.Codes[p] {
				t.Fatalf("Codes at %d column %d = %#x, want %#x (row %d)", i, c, got, in.Codes[p], p)
			}
		}
	}
	total := 0
	for _, in := range inputs {
		total += in.Width
	}
	// bit returns bit k, counted from the most significant end, of row
	// p's raw concatenation: equality is blind to a DESC complement.
	bit := func(p uint32, k int) uint64 {
		for _, in := range inputs {
			if k < in.Width {
				return in.Codes[p] >> uint(in.Width-1-k) & 1
			}
			k -= in.Width
		}
		panic("bit past the concatenation")
	}
	for pair := 1; pair < 2*n; pair++ {
		i, j := pair-1, pair
		if pair >= n {
			i, j = rng.Intn(n), rng.Intn(n)
		}
		same := true
		for bits := 0; bits <= total; bits++ {
			if bits > 0 {
				same = same && bit(res.Perm[i], bits-1) == bit(res.Perm[j], bits-1)
			}
			if got := res.SamePrefix(i, j, bits); got != same {
				t.Fatalf("SamePrefix(%d, %d, %d) = %v, want %v", i, j, bits, got, same)
			}
		}
	}
}

// TestResultKeysDecode runs random columns (DESC ones included) under
// random plans — stitched and borrowing rounds among them — on the full
// path and both truncated paths at workers 1, 2 and 4, and one input
// past mergesort.ParallelMinRows whose later round sorts a group
// cooperatively, and checks the sorted keys with checkKeys.
func TestResultKeysDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 24; trial++ {
		m := 1 + rng.Intn(4)
		widths, distinct := make([]int, m), make([]int, m)
		total := 0
		for c := range widths {
			widths[c] = 1 + rng.Intn(30)
			distinct[c] = 1 + rng.Intn(1<<uint(min(widths[c], 6)))
			total += widths[c]
		}
		rows := 200 + rng.Intn(1200)
		inputs := randInputs(rng, widths, distinct, rows)
		for c := range inputs {
			inputs[c].Desc = rng.Intn(2) == 0
		}
		var p plan.Plan
		for remaining := total; remaining > 0; {
			w := min(1+rng.Intn(remaining), plan.MaxWidth)
			p.Rounds = append(p.Rounds, plan.Round{Width: w, Bank: plan.MinBankFor(w)})
			remaining -= w
		}
		for _, lim := range []struct{ rows, groups int }{{0, 0}, {1 + rng.Intn(rows/2), 0}, {0, 1 + rng.Intn(20)}} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("trial=%d/plan=%v/limit=%d,%d/workers=%d", trial, p.Widths(), lim.rows, lim.groups, workers), func(t *testing.T) {
					res, err := execute(inputs, p, Options{Workers: workers, LimitRows: lim.rows, LimitGroups: lim.groups})
					if err != nil {
						t.Fatal(err)
					}
					checkKeys(t, rng, inputs, res)
				})
			}
		}
	}

	// Round 1's two groups share 2·ParallelMinRows rows: from two
	// workers on, the larger dominates the round and is sorted
	// cooperatively.
	rows := 2 * mergesort.ParallelMinRows
	inputs := randInputs(rng, []int{1, 20}, []int{2, 1 << 20}, rows)
	p := plan.ColumnAtATime([]int{1, 20})
	for _, workers := range []int{1, 2, 4} {
		var res *Result
		var err error
		if coop := testutil.Bumps(func() { res, err = execute(inputs, p, Options{Workers: workers}) }, "mcsort.cooperative_group_sorts")[0]; (coop > 0) != (workers >= 2) {
			t.Fatalf("rows=%d workers=%d: %d groups sorted cooperatively", rows, workers, coop)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, rng, inputs, res)
	}
}
