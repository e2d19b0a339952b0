package mergesort_test

import (
	"sort"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// FuzzOVCMerge differences the offset-value-coded packed merge against
// the plain one on arbitrary keys and run boundaries: both must be
// byte-identical in keys and oids — OVC is a comparison surrogate,
// never a tie-break change — and their keys MergeRunsContext's words at
// the fuzzed worker count. The audit instrumentation is armed for the
// coded merge, so any code verdict contradicting the full keys fails
// the run even when the outputs happen to agree.
//
// Run boundaries come from an LCG over runSeed (as in FuzzParallelMerge)
// so empty, single-element, and wildly unbalanced runs occur; the seed
// corpus pins the all-ties inputs that exercise the zero-code fast path.
func FuzzOVCMerge(f *testing.F) {
	f.Add(uint16(0), uint16(2), uint16(2), []byte{})
	f.Add(uint16(0), uint16(5), uint16(3), make([]byte, 256)) // all ties at zero
	allB := make([]byte, 192)
	for i := range allB {
		allB[i] = 0x42
	}
	f.Add(uint16(2), uint16(4), uint16(7), allB) // all ties, nonzero key
	f.Add(uint16(1), uint16(9), uint16(2), []byte("skewed ties: aaaaaaaaaaaaaaaaaaaaaaaabbzzzz"))

	f.Fuzz(func(t *testing.T, bankSel, runSeed, workersRaw uint16, data []byte) {
		bank := Banks[int(bankSel)%len(Banks)]
		keys := keysFromBytes(data, bank)
		n := len(keys)
		if n == 0 {
			return
		}
		workers := int(workersRaw)%8 + 1

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

		oids := make([]uint32, n)
		for i := range oids {
			oids[i] = uint32(i)
		}
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
		}

		offK := append([]uint64(nil), keys...)
		offO := append([]uint32(nil), oids...)
		mustMergePacked(t, bank, offK, offO, cuts, paper.Params{DisableOVC: true})

		onK := append([]uint64(nil), keys...)
		onO := append([]uint32(nil), oids...)
		audit := paper.AuditOVC(func() { mustMergePacked(t, bank, onK, onO, cuts, paper.Params{}) })
		if m := audit.Mismatches; m != 0 {
			t.Fatalf("bank %d n %d runs %d: %d code verdicts contradicted the keys", bank, n, nRuns, m)
		}

		runK := mustMergeRuns(t, keys, cuts, 0, workers)
		for i := 0; i < n; i++ {
			if onK[i] != offK[i] || onO[i] != offO[i] {
				t.Fatalf("bank %d n %d runs %d: OVC diverges at %d: (%d,%d) vs (%d,%d)",
					bank, n, nRuns, i, onK[i], onO[i], offK[i], offO[i])
			}
			if runK[i] != offK[i] {
				t.Fatalf("bank %d n %d runs %d workers %d: MergeRunsContext diverges at %d: %d vs %d",
					bank, n, nRuns, workers, i, runK[i], offK[i])
			}
		}
	})
}
