package mergesort_test

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/testutil"
)

// The must* helpers run an entry point under context.Background() and
// fail the test on any error: most tests exercise sorting and merging,
// not cancellation or containment.

func mustSort(tb testing.TB, bank int, keys []uint64, oids []uint32, p Params) {
	tb.Helper()
	if err := SortScratchContext(context.Background(), bank, keys, oids, p, nil); err != nil {
		tb.Fatal(err)
	}
}

func mustParallelSort(tb testing.TB, bank int, keys []uint64, oids []uint32, p Params, workers int) {
	tb.Helper()
	if err := ParallelSortWithParamsContext(context.Background(), bank, keys, oids, p, workers); err != nil {
		tb.Fatal(err)
	}
}

// chunkMerges runs f and counts the shares of the paper kernel's chunk
// merge (faultinject.LoserMerge), which only its parallel sort reaches.
func chunkMerges(f func()) int64 {
	var n atomic.Int64
	defer faultinject.Set(faultinject.LoserMerge, func() { n.Add(1) })()
	f()
	return n.Load()
}

// sortsInParallel runs f, which sorts under one kernel, and reports
// whether that kernel's parallel sort ran: the radix kernel's
// (mergesort.parallel_sorts) or the paper kernel's chunk sorts and
// chunk merge (chunkMerges).
func sortsInParallel(f func()) bool {
	var merges int64
	par := testutil.Bumps(func() { merges = chunkMerges(f) }, "mergesort.parallel_sorts")[0]
	return par > 0 || merges > 0
}

func mustMergePacked(tb testing.TB, bank int, keys []uint64, oids []uint32, runs []int, p paper.Params) {
	tb.Helper()
	if err := paper.MergePacked(context.Background(), bank, keys, oids, runs, p); err != nil {
		tb.Fatal(err)
	}
}

// paperKernel returns p with the paper's kernel, configured by pp,
// plugged into its Sort hook.
func paperKernel(p Params, pp paper.Params) Params {
	p.Sort = pp.Sort
	return p
}

// mustMergeRuns cuts keys at the run bounds and merges the runs with
// MergeRunsContext.
func mustMergeRuns(tb testing.TB, keys []uint64, runs []int, limit, workers int) []uint64 {
	tb.Helper()
	mk, err := MergeRunsContext(context.Background(), splitAt(keys, runs), limit, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return mk
}

// splitAt cuts keys into the runs bounded by runs.
func splitAt(keys []uint64, runs []int) [][]uint64 {
	k := make([][]uint64, len(runs)-1)
	for r := range k {
		k[r] = keys[runs[r]:runs[r+1]]
	}
	return k
}

// sortedPrefix is the word merge's oracle: the first min(limit, n) of
// keys in ascending order (limit ≤ 0: all of them).
func sortedPrefix(keys []uint64, limit int) []uint64 {
	out := slices.Clone(keys)
	slices.Sort(out)
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// checkWords fails unless got is exactly want.
func checkWords(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: diverges at %d: got %d want %d", label, i, got[i], want[i])
		}
	}
}

func mustTopK(tb testing.TB, bank int, keys []uint64, oids []uint32, limit int, p Params, workers int) int {
	tb.Helper()
	m, err := TopKContext(context.Background(), bank, keys, oids, limit, p, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
