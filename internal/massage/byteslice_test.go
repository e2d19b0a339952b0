package massage

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/testutil"
)

// selection returns a filtered, non-identity row-id list: about two
// thirds of [0, n), ascending, so input row i is table row sel[i] ≠ i.
func selection(rng *rand.Rand, n int) []uint32 {
	sel := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			sel = append(sel, uint32(i))
		}
	}
	return sel
}

// sourcedInputs builds one column per width over a table of tableRows
// rows and describes it four ways over the selection sel: materialised
// (the selected codes), ByteSlice-backed (the column's ByteSlice and
// sel), mixed (every other column ByteSlice-backed), and whole (a
// ByteSlice of the selected codes alone with no row list: every row).
func sourcedInputs(rng *rand.Rand, widths []int, desc []bool, tableRows int, sel []uint32) (mat, bs, mixed, whole []Input) {
	for c, w := range widths {
		codes := make([]uint64, tableRows)
		for r := range codes {
			codes[r] = rng.Uint64() & column.Mask(w)
		}
		picked := make([]uint64, len(sel))
		for i, r := range sel {
			picked[i] = codes[r]
		}
		m := Input{Codes: picked, Width: w, Desc: desc[c]}
		b := Input{Width: w, Desc: desc[c], Source: &Source{Column: byteslice.FromColumn(column.FromCodes("c", w, codes)), Rows: sel}}
		mat, bs = append(mat, m), append(bs, b)
		whole = append(whole, Input{Width: w, Desc: desc[c], Source: &Source{Column: byteslice.FromColumn(column.FromCodes("c", w, picked))}})
		if c%2 == 0 {
			mixed = append(mixed, b)
		} else {
			mixed = append(mixed, m)
		}
	}
	return mat, bs, mixed, whole
}

// TestByteSliceInputsMatchMaterialised is the late-materialisation
// differential: every entry point given ByteSlice-backed (or mixed)
// inputs over a filtered selection, or over every row of a column with
// no row list, must produce exactly the keys it produces from the
// materialised codes of the same rows — widths 1–64
// (one to eight planes), ASC and DESC, row counts around the gather
// block and the sequential block, workers {1, 2, 4}.
func TestByteSliceInputsMatchMaterialised(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(38))
	for _, rows := range []int{gatherBlock - 1, gatherBlock, gatherBlock + 1, seqCheckRows + 1} {
		for g := 0; g < 16; g++ {
			if rows > seqCheckRows && g%4 != 3 {
				continue // the big row count covers one width group per plane pair
			}
			// Group g covers widths 4g+1 … 4g+4; directions alternate,
			// flipped per group.
			widths := []int{4*g + 1, 4*g + 2, 4*g + 3, 4*g + 4}
			desc := []bool{g%2 == 0, g%2 == 1, g%2 == 0, g%2 == 1}
			sel := selection(rng, rows+rows/2)
			sel = sel[:min(rows, len(sel))]
			mat, bs, mixed, whole := sourcedInputs(rng, widths, desc, rows+rows/2, sel)
			n := len(sel)
			total := 0
			for _, w := range widths {
				total += w
			}
			var outWidths []int // rounds of 1–64 bits, stitches and borrows alike
			for rem := total; rem > 0; {
				w := 1 + rng.Intn(min(64, rem))
				outWidths, rem = append(outWidths, w), rem-w
			}
			prog, err := Compile(mat, outWidths)
			if err != nil {
				t.Fatal(err)
			}
			perm := rng.Perm(n)[:n-n/3]
			survivors := make([]uint32, len(perm))
			for i, p := range perm {
				survivors[i] = uint32(p)
			}
			for _, workers := range []int{1, 2, 4} {
				want, err := prog.RunParallelContext(ctx, mat, n, workers)
				if err != nil {
					t.Fatal(err)
				}
				for v, in := range [][]Input{bs, mixed, whole} {
					tag := fmt.Sprintf("rows=%d widths=%v %s workers=%d", n, widths, []string{"bs", "mixed", "whole"}[v], workers)
					got, err := prog.RunParallelContext(ctx, in, n, workers)
					if err != nil {
						t.Fatal(err)
					}
					for d := range want {
						if !slices.Equal(got[d], want[d]) {
							t.Fatalf("%s: RunParallelContext round %d differs", tag, d)
						}
						round, err := prog.RunRoundParallelContext(ctx, in, n, d, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(round, want[d]) {
							t.Fatalf("%s: RunRoundParallelContext round %d differs", tag, d)
						}
						fusedWant, err := prog.RunRoundGatherContext(ctx, mat, survivors, d, workers)
						if err != nil {
							t.Fatal(err)
						}
						fused, err := prog.RunRoundGatherContext(ctx, in, survivors, d, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(fused, fusedWant) {
							t.Fatalf("%s: RunRoundGatherContext round %d differs", tag, d)
						}
					}
				}
			}
		}
	}
}

// TestByteSlicePassAllocatesPerRange pins that the fused gather
// allocates its block buffers once per range, never per block: on the
// caller's goroutine one range of 2 blocks and one of 64 allocate the
// same, for round 0 and for a survivors' round. AllocsPerRun counts
// every allocation in the process, a stray runtime or fuzz-harness one
// included, so each side is the least of several readings: outside
// noise only ever adds.
func TestByteSlicePassAllocatesPerRange(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	leastAllocs := func(f func()) float64 {
		least := testing.AllocsPerRun(5, f)
		for k := 0; k < 4; k++ {
			least = min(least, testing.AllocsPerRun(5, f))
		}
		return least
	}
	allocs := func(rows int) (round0, gather float64) {
		sel := selection(rng, 2*rows)[:rows]
		_, bs, _, _ := sourcedInputs(rng, []int{11, 14, 3}, []bool{false, true, false}, 2*rows, sel)
		prog, err := Compile(bs, []int{16, 12})
		if err != nil {
			t.Fatal(err)
		}
		perm := make([]uint32, rows)
		for i := range perm {
			perm[i] = uint32(rows - 1 - i)
		}
		round0 = leastAllocs(func() {
			if _, err := prog.RunRoundParallelContext(ctx, bs, rows, 0, 1); err != nil {
				t.Fatal(err)
			}
		})
		gather = leastAllocs(func() {
			if _, err := prog.RunRoundGatherContext(ctx, bs, perm, 1, 1); err != nil {
				t.Fatal(err)
			}
		})
		return round0, gather
	}
	r2, g2 := allocs(2 * gatherBlock)
	r64, g64 := allocs(seqCheckRows)
	if r64 != r2 || g64 != g2 {
		t.Errorf("allocs per pass: round 0 %v at 2 blocks, %v at 64; gather %v at 2 blocks, %v at 64 — want equal", r2, r64, g2, g64)
	}
}

// BenchmarkRoundFromByteSlice times round 0 of a truncated sort over
// 2^19 rows, its source columns materialised against read straight from
// their ByteSlices (a filtered selection of 2^19 of 2^20 rows), for
// source segments of one, two, three, four and six planes (two columns
// of 8p−3 and 8p−1 bits, stitched into one round while they fit 64
// bits), workers 1 and 2. The materialised case includes the gather
// that builds its codes (on the caller's goroutine), as the engine's
// materialisation did. The all-rounds cells time the whole massage of
// two workload shapes from their ByteSlices: lib_ties (four columns of
// 5, 5, 3 and 5 bits, every row, one 18-bit round) and lib_wide_unique
// (21, 12, 17, 18 and 21 bits, a 96 % selection, rounds of 29 and 60
// bits).
func BenchmarkRoundFromByteSlice(b *testing.B) {
	const rows = 1 << 19
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	sel := make([]uint32, rows)
	for i := range sel {
		sel[i] = uint32(2*i + rng.Intn(2))
	}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	}
	for _, planes := range []int{1, 2, 3, 4, 6} {
		widths := []int{8*planes - 3, 8*planes - 1}
		outWidths := []int{widths[0] + widths[1]}
		if outWidths[0] > 64 {
			outWidths = widths
		}
		_, bs, _, _ := sourcedInputs(rng, widths, []bool{false, true}, 2*rows, sel)
		prog, err := Compile(bs, outWidths)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("planes=%d/workers=%d/materialised", planes, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mat := make([]Input, len(bs))
					for c, in := range bs {
						codes := make([]uint64, rows)
						in.Source.Column.Gather(codes, in.Source.Rows)
						mat[c] = Input{Codes: codes, Width: in.Width, Desc: in.Desc}
					}
					if _, err := prog.RunRoundParallelContext(ctx, mat, rows, 0, workers); err != nil {
						b.Fatal(err)
					}
				}
				perRow(b)
			})
			b.Run(fmt.Sprintf("planes=%d/workers=%d/byteslice", planes, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := prog.RunRoundParallelContext(ctx, bs, rows, 0, workers); err != nil {
						b.Fatal(err)
					}
				}
				perRow(b)
			})
		}
	}
	every := make([]uint32, 0, rows) // a 96 % selection of rows·25/24 rows
	for i := 0; len(every) < rows; i++ {
		if rng.Intn(25) != 0 {
			every = append(every, uint32(i))
		}
	}
	for _, shape := range []struct {
		name      string
		widths    []int
		sel       []uint32 // nil: every row of a rows-row column
		outWidths []int
	}{
		{"lib_ties", []int{5, 5, 3, 5}, nil, []int{18}},
		{"lib_wide_unique", []int{21, 12, 17, 18, 21}, every, []int{29, 60}},
	} {
		var inputs []Input
		if shape.sel == nil {
			_, _, _, inputs = sourcedInputs(rng, shape.widths, make([]bool, len(shape.widths)), rows, identity(rows))
		} else {
			_, inputs, _, _ = sourcedInputs(rng, shape.widths, make([]bool, len(shape.widths)), int(shape.sel[rows-1])+1, shape.sel)
		}
		prog, err := Compile(inputs, shape.outWidths)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d/all-rounds", shape.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := prog.RunParallelContext(ctx, inputs, rows, workers); err != nil {
						b.Fatal(err)
					}
				}
				perRow(b)
			})
		}
	}
}

// identity is the selection of every row of an n-row column, in order.
func identity(n int) []uint32 {
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = uint32(i)
	}
	return rows
}

// TestBytesMovedCountsPlanes: massage.bytes_moved books, per segment
// and row, the round key's 8 B read-modify-write plus the segment's
// read: an 8 B code of a materialised input, one byte per plane its
// bits cover of a ByteSlice-backed one. Columns of 12 and 21 bits cut
// into rounds of 20 and 13 bits make three segments: bits 0–11 of the
// first column (planes 0–1) and bits 0–7 (plane 0) and 8–20 (planes
// 1–2) of the second — 10 + 9 + 10 B per row from the planes, 3 × 16
// from codes, 10 + 16 + 16 mixed — whatever the selection, entry point
// or worker count.
func TestBytesMovedCountsPlanes(t *testing.T) {
	const rows = 3000
	rng := rand.New(rand.NewSource(71))
	sel := selection(rng, rows+rows/2)
	mat, bs, mixed, whole := sourcedInputs(rng, []int{12, 21}, []bool{false, true}, rows+rows/2, sel)
	n := len(sel)
	prog, err := Compile(bs, []int{20, 13})
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(n - 1 - i)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		inputs     []Input
		all, round int64 // B/row of the whole pass, and of round 1 alone
	}{
		{"planes", bs, 10 + 9 + 10, 10},
		{"whole", whole, 10 + 9 + 10, 10},
		{"codes", mat, 3 * 16, 16},
		{"mixed", mixed, 10 + 16 + 16, 16},
	} {
		for _, workers := range []int{1, 2} {
			for _, run := range []struct {
				name string
				want int64
				f    func() error
			}{
				{"all", tc.all * int64(n), func() error { _, err := prog.RunParallelContext(ctx, tc.inputs, n, workers); return err }},
				{"round", tc.round * int64(n), func() error { _, err := prog.RunRoundParallelContext(ctx, tc.inputs, n, 1, workers); return err }},
				{"gather", tc.round * int64(n), func() error { _, err := prog.RunRoundGatherContext(ctx, tc.inputs, perm, 1, workers); return err }},
			} {
				var err error
				got := testutil.Bumps(func() { err = run.f() }, "massage.bytes_moved")[0]
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, run.name, workers, err)
				}
				if got != run.want {
					t.Errorf("%s/%s workers=%d: bytes_moved %d, want %d", tc.name, run.name, workers, got, run.want)
				}
			}
		}
	}
}
