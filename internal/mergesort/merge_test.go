package mergesort_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/pipeerr"
)

// mergeInputs are the key distributions of the merge battery: one value
// everywhere, one value on 95 % of the rows, and distinct values.
func mergeInputs(n int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	in := map[string][]uint64{
		"allequal": make([]uint64, n),
		"skew95":   make([]uint64, n),
		"unique":   make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		in["allequal"][i] = 7
		in["skew95"][i] = 7
		if rng.Intn(100) >= 95 {
			in["skew95"][i] = rng.Uint64()
		}
		in["unique"][i] = rng.Uint64()
	}
	return in
}

// TestMergeRunsMatchesOracleAndPacked pins paper.MergePacked to the
// stable (key, run index) oracle and MergeRunsContext to the sorted
// words — the packed merge's keys — at every worker count and limit:
// the limited merge is the full merge's prefix of exactly min(limit, n)
// words.
func TestMergeRunsMatchesOracleAndPacked(t *testing.T) {
	const n = 5000
	for name, keys := range mergeInputs(n, 5) {
		for _, nRuns := range []int{2, 3, 8} {
			k, oids := append([]uint64(nil), keys...), identOids(n)
			runs := sortedRuns(k, oids, nRuns)
			wantK, wantO := mergeOracle(k, oids, runs)
			packedK, packedO := append([]uint64(nil), k...), append([]uint32(nil), oids...)
			mustMergePacked(t, 64, packedK, packedO, runs, paper.Params{})
			checkMerged(t, fmt.Sprintf("%s runs=%d packed", name, nRuns), packedK, packedO, wantK, wantO)
			for _, limit := range []int{1, n / 2, n, n + 7} {
				want := sortedPrefix(k, limit)
				checkWords(t, fmt.Sprintf("%s runs=%d limit=%d oracle", name, nRuns, limit), want, packedK[:min(limit, n)])
				for _, w := range []int{1, 2, 3, 8} {
					got := mustMergeRuns(t, k, runs, limit, w)
					checkWords(t, fmt.Sprintf("%s runs=%d limit=%d workers=%d", name, nRuns, limit, w), got, want)
				}
			}
		}
	}
}

// TestPaperKernelParallelSortIsChunkSortsPlusPackedMerge pins the paper
// kernel's parallel sort to its definition: sort each chunk, then merge
// the chunks stably by chunk index — here with the packed merge, which
// the parallel sort does not call. Chunks are cut on whole in-register
// blocks of v×v elements, v = 256/bank lanes.
func TestPaperKernelParallelSortIsChunkSortsPlusPackedMerge(t *testing.T) {
	const n = 20000
	for _, bank := range Banks {
		p := paperKernel(Params{}, paper.Params{})
		v := 256 / bank
		for name, keys := range adversarialInputs(n, bank, 13) {
			for _, w := range []int{2, 3, 8} {
				wantK, wantO := append([]uint64(nil), keys...), identOids(n)
				bounds := pipeerr.Cut(n, w, v*v)
				for c := 0; c+1 < len(bounds); c++ {
					mustSort(t, bank, wantK[bounds[c]:bounds[c+1]], wantO[bounds[c]:bounds[c+1]], p)
				}
				mustMergePacked(t, bank, wantK, wantO, bounds, paper.Params{})
				gotK, gotO := append([]uint64(nil), keys...), identOids(n)
				if chunkMerges(func() { mustParallelSort(t, bank, gotK, gotO, p, w) }) == 0 {
					t.Fatalf("%s bank=%d workers=%d: the chunk merge never ran", name, bank, w)
				}
				checkMerged(t, fmt.Sprintf("%s bank=%d workers=%d", name, bank, w), gotK, gotO, wantK, wantO)
			}
		}
	}
}

// TestMergeRunsSingleRunUncopied pins the one-run shortcut: when a
// single run holds rows, the merge returns that run itself, cut to the
// limit, not a copy.
func TestMergeRunsSingleRunUncopied(t *testing.T) {
	keys := []uint64{1, 2, 2, 5}
	for _, c := range []struct{ limit, want int }{{0, 4}, {3, 3}} {
		k, err := MergeRunsContext(context.Background(), [][]uint64{nil, keys, {}}, c.limit, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(k) != c.want || &k[0] != &keys[0] {
			t.Fatalf("limit=%d: got %d rows at %p, want %d rows of the run itself at %p", c.limit, len(k), &k[0], c.want, &keys[0])
		}
	}
}
