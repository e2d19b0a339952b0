package mergesort

import (
	"context"
	"testing"
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

func mustParallelMerge(tb testing.TB, bank int, keys []uint64, oids []uint32, runs []int, p Params, workers int) {
	tb.Helper()
	if err := ParallelMergeWithParamsContext(context.Background(), bank, keys, oids, runs, p, workers); err != nil {
		tb.Fatal(err)
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

func mustParallelMergeTopK(tb testing.TB, bank int, keys []uint64, oids []uint32, runs []int, limit int, p Params, workers int) int {
	tb.Helper()
	m, err := ParallelMergeTopKContext(context.Background(), bank, keys, oids, runs, limit, p, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
