package mergesort_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/testutil"
)

// FuzzTopKMerge drives MergeRunsContext's limit path with arbitrary
// words, fuzzed run boundaries, worker counts, and limits, against the
// same slices.Sort oracle as FuzzParallelMerge: the merge must stop
// after exactly min(limit, n) words, those words must equal the sorted
// input's prefix, and a second worker count must return the same
// bytes.
func FuzzTopKMerge(f *testing.F) {
	f.Add(uint16(0), uint16(2), uint16(2), uint16(1), []byte{})
	f.Add(uint16(1), uint16(3), uint16(3), uint16(5), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(2), uint16(5), uint16(4), uint16(3), make([]byte, 513)) // one giant tie across the cut
	f.Add(uint16(0), uint16(9), uint16(8), uint16(100), []byte("interleaved runs of modest entropy, repeated: interleaved runs"))
	seed := make([]byte, 2048)
	for i := range seed {
		seed[i] = byte(i * 57)
	}
	f.Add(uint16(1), uint16(7), uint16(5), uint16(64), seed)

	f.Fuzz(func(t *testing.T, bankSel, runSeed, workersRaw, limitRaw uint16, data []byte) {
		bank := Banks[int(bankSel)%len(Banks)]
		keys := keysFromBytes(data, bank)
		n := len(keys)
		if n == 0 {
			return
		}
		workers := int(workersRaw)%8 + 1
		// Limits from 1 to a bit past n so the uncut merge (limit >= n) is
		// fuzzed too.
		limit := int(limitRaw)%(n+8) + 1

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

		for r := 0; r+1 < len(cuts); r++ {
			slices.Sort(keys[cuts[r]:cuts[r+1]])
		}

		got := mustMergeRuns(t, keys, cuts, limit, workers)
		if want := min(limit, n); len(got) != want {
			t.Fatalf("bank %d n %d limit %d workers %d: %d words, want %d", bank, n, limit, workers, len(got), want)
		}
		checkWords(t, fmt.Sprintf("bank %d n %d runs %d limit %d workers %d", bank, n, nRuns, limit, workers), got, sortedPrefix(keys, limit))

		// The output does not depend on the worker count.
		got2 := mustMergeRuns(t, keys, cuts, limit, workers%8+1)
		checkWords(t, fmt.Sprintf("bank %d n %d limit %d workers %d", bank, n, limit, workers%8+1), got2, got)
	})
}

// FuzzTopKContext drives TopKContext with arbitrary keys, banks and
// limits against the stable full sort: m must be the tie-extended count
// — every key ≤ the limit-th smallest, n when limit ≥ n or n is below
// SmallRunCutoff — and keys[:m], oids[:m] the stable sort's prefix byte
// for byte, at workers {1, 2, 3}. shape picks how many low bits of each
// key stay live and whether the bits above them are zero (a bank wider
// than the keys) or a constant 0xA5… pattern (digits every key shares,
// which the select must carry into its cut); from its bit 8 on, the
// keys are repeated past ParallelMinRows rows, so two and three workers
// cut them into chunks, and a cut that keeps ParallelMinRows rows must
// sort them in parallel (mergesort.parallel_sorts).
func FuzzTopKContext(f *testing.F) {
	f.Add(uint16(0), uint16(1), uint16(16), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(1), uint16(100), uint16(18|1<<8), []byte("top-k keys of modest entropy, repeated: top-k keys of modest entropy"))
	f.Add(uint16(2), uint16(7), uint16(40|1<<9), make([]byte, 700)) // one giant tie
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i * 167)
	}
	f.Add(uint16(1), uint16(2000), uint16(12|3<<8), seed)
	f.Add(uint16(2), uint16(40000), uint16(63|1<<9), seed)
	f.Add(uint16(0), uint16(17000), uint16(16|1<<8), seed)

	f.Fuzz(func(t *testing.T, bankSel, limitRaw, shape uint16, data []byte) {
		bank := Banks[int(bankSel)%len(Banks)]
		keys := keysFromBytes(data, bank)
		if len(keys) == 0 {
			return
		}
		live := int(shape&0xff)%bank + 1
		high := uint64(0)
		if shape&(1<<9) != 0 {
			high = 0xA5A5A5A5A5A5A5A5 & maskFor(bank) &^ maskFor(live)
		}
		if shape&(1<<8) != 0 {
			for len(keys) < ParallelMinRows+MinChunkRows {
				keys = append(keys, keys...)
			}
			keys = keys[:ParallelMinRows+MinChunkRows]
		}
		for i := range keys {
			keys[i] = high | keys[i]&maskFor(live)
		}
		n := len(keys)
		limit := int(limitRaw)%(n+8) + 1
		wantO := stableOrder(keys)
		wantM := n
		if limit < n && n >= SmallRunCutoff {
			pivot := keys[wantO[limit-1]]
			wantM = limit
			for wantM < n && keys[wantO[wantM]] == pivot {
				wantM++
			}
		}
		for _, workers := range []int{1, 2, 3} {
			gotK, gotO := slices.Clone(keys), identOids(n)
			var m int
			bumps := testutil.Bumps(func() { m = mustTopK(t, bank, gotK, gotO, limit, Params{}, workers) }, "mergesort.topk_sorts", "mergesort.parallel_sorts")
			if limit < n && n >= SmallRunCutoff && bumps[0] == 0 {
				t.Fatalf("bank %d n %d limit %d workers %d: the radix select never ran", bank, n, limit, workers)
			}
			if workers >= 2 && min(limit, n) >= ParallelMinRows && bumps[1] == 0 {
				t.Fatalf("bank %d n %d limit %d workers %d: the survivors were not sorted in parallel", bank, n, limit, workers)
			}
			if m != wantM {
				t.Fatalf("bank %d n %d limit %d workers %d: m=%d, want %d", bank, n, limit, workers, m, wantM)
			}
			for i := 0; i < m; i++ {
				if gotO[i] != wantO[i] || gotK[i] != keys[wantO[i]] {
					t.Fatalf("bank %d n %d limit %d workers %d: prefix diverges at %d: got (%d,%d) want (%d,%d)",
						bank, n, limit, workers, i, gotK[i], gotO[i], keys[wantO[i]], wantO[i])
				}
			}
		}
	})
}
