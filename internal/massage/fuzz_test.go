package massage

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
)

// fuzzMaxRows bounds the row count so the all-pairs order comparison
// stays cheap per fuzz execution.
const fuzzMaxRows = 48

// buildFuzzInputs derives 1–4 columns (widths 1–16, DESC when bit c of
// descMask is set) and their codes from fuzz bytes. Codes come from raw
// data bytes masked to the column width, which yields tie-heavy,
// structured distributions.
func buildFuzzInputs(widthsRaw uint32, descMask uint8, data []byte) []Input {
	m := int(widthsRaw&3) + 1
	inputs := make([]Input, m)
	rows := len(data)
	if rows > fuzzMaxRows {
		rows = fuzzMaxRows
	}
	for c := 0; c < m; c++ {
		w := int(widthsRaw>>(2+4*c))&15 + 1 // 1..16 bits
		mask := uint64(1)<<uint(w) - 1
		codes := make([]uint64, rows)
		for i := 0; i < rows; i++ {
			// Spread the byte across the width so high bits vary too.
			b := uint64(data[i])
			codes[i] = (b | b<<8*uint64(c+1)>>3) & mask
		}
		inputs[c] = Input{Codes: codes, Width: w, Desc: descMask>>uint(c)&1 == 1}
	}
	return inputs
}

// byteSliceBacked returns inputs with column c ByteSlice-backed when bit
// 4+c of mask is set: its codes stored in reverse row order and read
// through the reversed row ids, so input row i is never table row i.
func byteSliceBacked(inputs []Input, mask uint8) []Input {
	out := append([]Input(nil), inputs...)
	for c, in := range inputs {
		if mask>>uint(4+c)&1 == 0 {
			continue
		}
		n := len(in.Codes)
		codes, rows := make([]uint64, n), make([]uint32, n)
		for i := range codes {
			codes[n-1-i], rows[i] = in.Codes[i], uint32(n-1-i)
		}
		bs := byteslice.FromColumn(column.FromCodes("c", in.Width, codes))
		out[c] = Input{Width: in.Width, Desc: in.Desc, Source: &Source{Column: bs, Rows: rows}}
	}
	return out
}

// splitWidths partitions totalW bits into round widths (each 1..64)
// using cut bits: boundary candidate i is taken when bit i%32 of cuts
// is set, and forced whenever a round would exceed 64 bits.
func splitWidths(totalW int, cuts uint32) []int {
	var out []int
	cur := 0
	for bit := 0; bit < totalW; bit++ {
		cur++
		forced := cur == 64
		if bit < totalW-1 && (forced || cuts>>(uint(bit)%32)&1 == 1) {
			out = append(out, cur)
			cur = 0
		}
	}
	out = append(out, cur)
	return out
}

// FuzzMassageRoundTrip checks Lemma 1 end to end: massaging the
// concatenation into arbitrary round widths (stitches and borrows
// included) must induce exactly the order of the column-at-a-time
// baseline — for every row pair, the lexicographic comparison of the
// massaged round keys equals both the baseline program's comparison and
// a direct comparison of the raw codes with DESC semantics. RunParallel
// must agree with Run bit for bit, and so must a run whose inputs are
// partly ByteSlice-backed (descMask's high bits pick the columns).
// RunRoundGatherContext over a seeded survivor permutation must give,
// for materialised and ByteSlice-backed inputs alike, the full pass's
// keys read through the permutation. Decode must give every row's codes
// back from its round keys.
func FuzzMassageRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint32(0), []byte{1, 2, 3})
	f.Add(uint32(0xFFFF), uint8(3), uint32(0xAAAA), []byte("massage me"))
	f.Add(uint32(2+(15<<2)+(15<<6)), uint8(0), uint32(1<<14), make([]byte, 48))
	f.Add(uint32(3+(8<<2)+(1<<6)+(16<<10)), uint8(9), uint32(0x0F0F), []byte{255, 0, 255, 0, 128, 64, 32, 16})
	// A DESC 5-bit column lending round 0 one bit of a 7-bit one: rounds
	// of 6 and 6 bits, both columns ByteSlice-backed.
	f.Add(uint32(1+(4<<2)+(6<<6)), uint8(0x31), uint32(1<<5), []byte("borrow a bit, descending"))

	f.Fuzz(func(t *testing.T, widthsRaw uint32, descMask uint8, cuts uint32, data []byte) {
		inputs := buildFuzzInputs(widthsRaw, descMask, data)
		rows := len(inputs[0].Codes)
		inWidths := make([]int, len(inputs))
		totalW := 0
		for i, in := range inputs {
			inWidths[i] = in.Width
			totalW += in.Width
		}
		outWidths := splitWidths(totalW, cuts)

		prog, err := Compile(inputs, outWidths)
		if err != nil {
			t.Fatalf("Compile(%v -> %v): %v", inWidths, outWidths, err)
		}
		base, err := Compile(inputs, inWidths)
		if err != nil {
			t.Fatalf("Compile baseline: %v", err)
		}

		massaged := mustRun(t, prog, inputs, rows, 1)
		baseline := mustRun(t, base, inputs, rows, 1)

		parallel := mustRun(t, prog, inputs, rows, 3)
		sourced := mustRun(t, prog, byteSliceBacked(inputs, descMask), rows, 1)
		for r := range massaged {
			for i := 0; i < rows; i++ {
				if massaged[r][i] != parallel[r][i] {
					t.Fatalf("RunParallel diverges from Run at round %d row %d", r, i)
				}
				if massaged[r][i] != sourced[r][i] {
					t.Fatalf("ByteSlice-backed inputs (mask %#x) diverge at round %d row %d", descMask>>4, r, i)
				}
			}
		}

		// A truncated sort's survivors: a shuffled two-thirds of the rows.
		perm := make([]uint32, rows)
		for i, r := range rand.New(rand.NewSource(int64(cuts))).Perm(rows) {
			perm[i] = uint32(r)
		}
		perm = perm[:rows-rows/3]
		for _, in := range [][]Input{inputs, byteSliceBacked(inputs, descMask)} {
			for d := range outWidths {
				got, err := prog.RunRoundGatherContext(context.Background(), in, perm, d, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range perm {
					if got[i] != massaged[d][r] {
						t.Fatalf("RunRoundGatherContext round %d survivor %d (row %d) = %#x, full pass %#x", d, i, r, got[i], massaged[d][r])
					}
				}
			}
		}

		codes := decodeAll(prog, massaged, rows, len(inputs))
		for i := 0; i < rows; i++ {
			for c, in := range inputs {
				if got := codes[i*len(inputs)+c]; got != in.Codes[i] {
					t.Fatalf("Decode (widths %v -> %v) row %d column %d = %#x, want %#x", inWidths, outWidths, i, c, got, in.Codes[i])
				}
			}
		}

		cmpKeys := func(keys [][]uint64, i, j int) int {
			for r := range keys {
				if keys[r][i] != keys[r][j] {
					if keys[r][i] < keys[r][j] {
						return -1
					}
					return 1
				}
			}
			return 0
		}
		// Raw-code comparison with explicit DESC handling — independent
		// of the massage machinery entirely.
		cmpRaw := func(i, j int) int {
			for _, in := range inputs {
				a, b := in.Codes[i], in.Codes[j]
				if in.Desc {
					a, b = b, a
				}
				if a != b {
					if a < b {
						return -1
					}
					return 1
				}
			}
			return 0
		}

		for i := 0; i < rows; i++ {
			for j := i + 1; j < rows; j++ {
				want := cmpRaw(i, j)
				if got := cmpKeys(baseline, i, j); got != want {
					t.Fatalf("column-at-a-time order disagrees with raw codes: rows %d,%d got %d want %d", i, j, got, want)
				}
				if got := cmpKeys(massaged, i, j); got != want {
					t.Fatalf("massaged order (widths %v -> %v) violates Lemma 1: rows %d,%d got %d want %d",
						inWidths, outWidths, i, j, got, want)
				}
			}
		}
	})
}
