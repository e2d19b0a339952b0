package mergesort_test

import (
	"sort"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// FuzzParallelMerge drives MergeRunsContext's rank-split merge with
// arbitrary words, run boundaries, and worker counts against
// slices.Sort of the same words, and the paper's packed merge,
// paper.MergePacked, against the sequential stable oracle: merging
// sorted (key, oid) runs must order records by (key, run index) with
// within-run order preserved.
//
// The run boundaries are fuzzed too (derived from runSeed via a small
// LCG), so the multisequence selection sees empty runs, single-element
// runs, and wildly unbalanced runs, not just even splits.
func FuzzParallelMerge(f *testing.F) {
	f.Add(uint16(0), uint16(2), uint16(2), []byte{})
	f.Add(uint16(1), uint16(3), uint16(3), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(2), uint16(5), uint16(4), make([]byte, 513)) // all-zero: one giant tie
	f.Add(uint16(0), uint16(9), uint16(8), []byte("interleaved runs of modest entropy, repeated: interleaved runs"))
	seed := make([]byte, 2048)
	for i := range seed {
		seed[i] = byte(i * 89)
	}
	f.Add(uint16(1), uint16(7), uint16(5), seed)

	f.Fuzz(func(t *testing.T, bankSel, runSeed, workersRaw uint16, data []byte) {
		bank := Banks[int(bankSel)%len(Banks)]
		keys := keysFromBytes(data, bank)
		n := len(keys)
		if n == 0 {
			return
		}
		workers := int(workersRaw)%8 + 1

		// Fuzzed run boundaries: 2..9 runs, cut points from an LCG over
		// runSeed so empty and severely unbalanced runs occur.
		nRuns := int(runSeed)%8 + 2
		if nRuns > n {
			nRuns = n
		}
		lcg := uint64(runSeed)*2862933555777941757 + 3037000493
		cuts := make([]int, 0, nRuns+1)
		cuts = append(cuts, 0)
		for i := 1; i < nRuns; i++ {
			lcg = lcg*2862933555777941757 + 3037000493
			cuts = append(cuts, int(lcg%uint64(n+1)))
		}
		cuts = append(cuts, n)
		sort.Ints(cuts)

		// Sort each run so the input satisfies the merge precondition;
		// within a run ties keep oid order (stable), matching the oracle.
		oids := make([]uint32, n)
		for i := range oids {
			oids[i] = uint32(i)
		}
		runOf := make([]int, n)
		for r := 0; r+1 < len(cuts); r++ {
			lo, hi := cuts[r], cuts[r+1]
			seg := make([]int, hi-lo)
			for i := range seg {
				seg[i] = lo + i
			}
			sort.SliceStable(seg, func(a, b int) bool { return keys[seg[a]] < keys[seg[b]] })
			sk := make([]uint64, hi-lo)
			so := make([]uint32, hi-lo)
			for i, idx := range seg {
				sk[i] = keys[idx]
				so[i] = oids[idx]
			}
			copy(keys[lo:hi], sk)
			copy(oids[lo:hi], so)
			for i := lo; i < hi; i++ {
				runOf[i] = r
			}
		}

		// Oracle: stable sort of the (key, run) records — run order breaks
		// key ties, input order breaks (key, run) ties.
		type rec struct {
			k   uint64
			run int
			oid uint32
		}
		want := make([]rec, n)
		for i := range want {
			want[i] = rec{keys[i], runOf[i], oids[i]}
		}
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].k != want[b].k {
				return want[a].k < want[b].k
			}
			return want[a].run < want[b].run
		})

		gotK := mustMergeRuns(t, keys, cuts, 0, workers)
		wantK := sortedPrefix(keys, 0)
		packedK := append([]uint64(nil), keys...)
		packedO := append([]uint32(nil), oids...)
		mustMergePacked(t, bank, packedK, packedO, cuts, paper.Params{})

		for i := 0; i < n; i++ {
			if packedK[i] != want[i].k || packedO[i] != want[i].oid {
				t.Fatalf("bank %d n %d runs %d: packed merge diverges at %d: (%d,%d), oracle (%d,%d)",
					bank, n, nRuns, i, packedK[i], packedO[i], want[i].k, want[i].oid)
			}
			if gotK[i] != wantK[i] {
				t.Fatalf("bank %d n %d runs %d workers %d: words[%d] = %d, oracle %d",
					bank, n, nRuns, workers, i, gotK[i], wantK[i])
			}
		}
	})
}
