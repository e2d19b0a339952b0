package mergesort_test

import (
	"context"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// The must* helpers run an entry point under context.Background() and
// fail the test on any error: most tests exercise sorting and merging,
// not cancellation or containment.

func mustSort(tb testing.TB, bank int, keys []uint64, oids []uint32, p Params) {
	tb.Helper()
	if err := SortWithParamsContext(context.Background(), bank, keys, oids, p); err != nil {
		tb.Fatal(err)
	}
}

func mustParallelSort(tb testing.TB, bank int, keys []uint64, oids []uint32, p Params, workers int) {
	tb.Helper()
	if err := ParallelSortWithParamsContext(context.Background(), bank, keys, oids, p, workers); err != nil {
		tb.Fatal(err)
	}
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

// mustMergeRuns cuts keys/oids at the run bounds and merges the runs
// with MergeRunsContext.
func mustMergeRuns(tb testing.TB, keys []uint64, oids []uint32, runs []int, limit, workers int) ([]uint64, []uint32) {
	tb.Helper()
	k, o := splitAt(keys, oids, runs)
	mk, mo, err := MergeRunsContext(context.Background(), k, o, limit, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return mk, mo
}

// splitAt cuts keys/oids into the runs bounded by runs.
func splitAt(keys []uint64, oids []uint32, runs []int) ([][]uint64, [][]uint32) {
	k := make([][]uint64, len(runs)-1)
	o := make([][]uint32, len(runs)-1)
	for r := range k {
		k[r], o[r] = keys[runs[r]:runs[r+1]], oids[runs[r]:runs[r+1]]
	}
	return k, o
}

func mustTopK(tb testing.TB, bank int, keys []uint64, oids []uint32, limit int, p Params, workers int) int {
	tb.Helper()
	m, err := TopKContext(context.Background(), bank, keys, oids, limit, p, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
