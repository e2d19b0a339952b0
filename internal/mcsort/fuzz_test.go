package mcsort

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/massage"
	"repro/internal/plan"
)

// FuzzExecuteDeterministic fuzzes the tie contract of Result.Perm end to
// end: a fuzzed number of columns of fuzzed widths and duplicate
// fraction, sorted under a random valid plan with optional LimitRows /
// LimitGroups, must give the same Perm and Groups at workers 1, 2 and 3
// — and they must be those of a stable reference sort over
// (columns, oid), truncated the way docs/topk.md says — and Codes must
// decode every position's row from the sorted keys. Unlimited, with a
// fuzzed payload column of 1 to 32 bits (Options.Payload) under the
// same plan, every final group of the reference must carry exactly the
// payload codes of its rows at every worker count. Its inputs stay
// below mergesort.ParallelMinRows, so two and three workers share the
// later rounds' batched groups; the parallel sorts are the
// determinism battery's. The seed corpus is
// testdata/fuzz/FuzzExecuteDeterministic.
func FuzzExecuteDeterministic(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw uint16, colsRaw, dupRaw uint8, limitRowsRaw, limitGroupsRaw uint16) {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + int(rowsRaw)%2048
		inputs := make([]massage.Input, 1+int(colsRaw)%3)
		total := 0
		for c := range inputs {
			w := 1 + rng.Intn(20)
			if dupRaw == 0 {
				w = max(w, bits.Len(uint(rows))) // room for a unique column
			}
			// dupRaw = 0 makes every code of the column distinct, 255 all
			// of them equal.
			distinct := 1 + (min(1<<w, rows)-1)*(255-int(dupRaw))/255
			codes := make([]uint64, rows)
			for i, v := range rng.Perm(rows) {
				codes[i] = uint64(v % distinct)
			}
			inputs[c] = massage.Input{Codes: codes, Width: w, Desc: rng.Intn(2) == 0}
			total += w
		}
		var p plan.Plan
		for remaining := total; remaining > 0; {
			w := min(1+rng.Intn(remaining), plan.MaxWidth)
			bank := plan.MinBankFor(w)
			if rng.Intn(3) == 0 && bank < 64 {
				bank *= 2 // a wider bank than necessary is legal too
			}
			p.Rounds = append(p.Rounds, plan.Round{Width: w, Bank: bank})
			remaining -= w
		}
		limitRows, limitGroups := int(limitRowsRaw)%(rows+2), int(limitGroupsRaw)%(rows+2)

		// Reference: stable sort, maximal tie runs, then the truncation —
		// whole groups for LimitGroups, an exact row cut for LimitRows.
		wantPerm := refSort(inputs, rows)
		wantGroups := []int32{0}
		for i := 1; i < rows; i++ {
			if slices.ContainsFunc(inputs, func(in massage.Input) bool {
				return in.Codes[wantPerm[i]] != in.Codes[wantPerm[i-1]]
			}) {
				wantGroups = append(wantGroups, int32(i))
			}
		}
		wantGroups = append(wantGroups, int32(rows))
		fullPerm, fullGroups := wantPerm, slices.Clone(wantGroups)
		if limitGroups > 0 && limitGroups < len(wantGroups)-1 {
			wantGroups = wantGroups[:limitGroups+1]
		}
		if kept := int(wantGroups[len(wantGroups)-1]); limitRows > 0 && limitRows < kept {
			g, _ := slices.BinarySearch(wantGroups, int32(limitRows))
			wantGroups = append(wantGroups[:g], int32(limitRows))
		}
		wantPerm = wantPerm[:wantGroups[len(wantGroups)-1]]

		for _, w := range []int{1, 2, 3} {
			res, err := execute(inputs, p, Options{Workers: w, LimitRows: limitRows, LimitGroups: limitGroups})
			if err != nil {
				t.Fatalf("plan %v workers=%d: %v", p, w, err)
			}
			if !slices.Equal(res.Perm, wantPerm) {
				t.Fatalf("plan %v limits %d/%d workers=%d: Perm differs from the stable reference", p, limitRows, limitGroups, w)
			}
			if !slices.Equal(res.Groups, wantGroups) {
				t.Fatalf("plan %v limits %d/%d workers=%d: Groups = %v, want %v", p, limitRows, limitGroups, w, res.Groups, wantGroups)
			}
			codes := allCodes(res, len(inputs))
			for i, o := range res.Perm {
				for c, in := range inputs {
					if got := codes[i*len(inputs)+c]; got != in.Codes[o] {
						t.Fatalf("plan %v limits %d/%d workers=%d: Codes at %d column %d = %#x, not row %d's", p, limitRows, limitGroups, w, i, c, got, o)
					}
				}
			}
		}

		payW := 1 + rng.Intn(32)
		payCodes := make([]uint64, rows)
		for i := range payCodes {
			payCodes[i] = rng.Uint64() >> uint(64-payW)
		}
		pl := &massage.Source{Column: byteslice.FromColumn(column.FromCodes("pay", payW, payCodes))}
		for _, w := range []int{1, 2, 3} {
			res, err := execute(inputs, p, Options{Workers: w, Payload: pl})
			if err != nil {
				t.Fatalf("plan %v workers=%d payload: %v", p, w, err)
			}
			if !slices.Equal(res.Groups, fullGroups) {
				t.Fatalf("plan %v workers=%d payload: Groups = %v, want %v", p, w, res.Groups, fullGroups)
			}
			for g := 0; g+1 < len(fullGroups); g++ {
				lo, hi := fullGroups[g], fullGroups[g+1]
				got, want := slices.Clone(res.Perm[lo:hi]), make([]uint32, 0, hi-lo)
				for _, o := range fullPerm[lo:hi] {
					want = append(want, uint32(payCodes[o]))
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("plan %v workers=%d payload: group %d carries %v, want %v", p, w, g, got, want)
				}
			}
		}
	})
}
