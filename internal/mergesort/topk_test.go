package mergesort_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/obs"
)

// Property battery for the top-K partial sort and the limited merge
// (docs/topk.md).
//
// Two contracts are pinned:
//
//   - MergeRunsContext under a limit returns exactly min(limit, n) words,
//     the sorted input's prefix, at every worker count, including the
//     all-equal-keys input whose cut falls inside one tie group.
//   - TopK's survivor count m is value-defined (tie-extended), so it is
//     identical at every worker count and under either kernel, and
//     keys[:m] and oids[:m] equal the stable full sort's prefix byte for
//     byte.

// topkLimits is the limit sweep relative to n: small limits, and larger
// ones on both sides of n/2 and just below n. TopK refuses
// limit < 1, so 0 is covered by the validation test instead.
func topkLimits(n int) []int {
	return []int{1, 7, 100, n / 8, n/2 - 1, n / 2, n - 1, n, n + 7}
}

// stableOrder is the oracle of a sort of keys with identity oids: the
// oids in stable ascending key order.
func stableOrder(keys []uint64) []uint32 {
	o := identOids(len(keys))
	sort.SliceStable(o, func(i, j int) bool { return keys[o[i]] < keys[o[j]] })
	return o
}

func TestParallelMergeTopKMatchesOraclePrefix(t *testing.T) {
	const n = 3000
	for _, bank := range Banks {
		for name, keys := range adversarialInputs(n, bank, int64(bank)) {
			for _, nRuns := range []int{2, 5, 9} {
				oids := identOids(n)
				k := append([]uint64(nil), keys...)
				runs := sortedRuns(k, oids, nRuns)
				for _, limit := range topkLimits(n) {
					want := sortedPrefix(k, limit)
					for _, w := range parWorkerCounts {
						got := mustMergeRuns(t, k, runs, limit, w)
						checkWords(t, fmt.Sprintf("%s bank=%d runs=%d limit=%d workers=%d", name, bank, nRuns, limit, w), got, want)
					}
				}
			}
		}
	}
}

// TestTopKMatchesFullSortPrefix pins TopKContext to the stable full
// sort's prefix, under either kernel, at every worker count. The
// 2·ParallelMinRows-row inputs, cut at n/2, keep at least
// ParallelMinRows survivors, so at workers ≥ 2 their survivor sort is
// the parallel one: the radix kernel's (mergesort.parallel_sorts) or
// the paper kernel's chunk sorts and chunk merge
// (faultinject.LoserMerge).
func TestTopKMatchesFullSortPrefix(t *testing.T) {
	for _, n := range []int{3000, 2 * ParallelMinRows} {
		limits := topkLimits(n)
		if n >= ParallelMinRows {
			limits = []int{n / 2}
		}
		for _, bank := range Banks {
			for name, keys := range adversarialInputs(n, bank, int64(bank)+99) {
				sorted := append([]uint64(nil), keys...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				stable := stableOrder(keys)
				for _, paperK := range []bool{false, true} {
					for _, limit := range limits {
						var prevM = -1
						for _, w := range parWorkerCounts {
							var p Params
							if paperK {
								p = paperKernel(p, paper.Params{})
							}
							gotK := append([]uint64(nil), keys...)
							gotO := make([]uint32, n)
							for i := range gotO {
								gotO[i] = uint32(i)
							}
							var m int
							par := sortsInParallel(func() { m = mustTopK(t, bank, gotK, gotO, limit, p, w) })
							label := fmt.Sprintf("%s n=%d bank=%d paper=%v limit=%d workers=%d",
								name, n, bank, paperK, limit, w)
							if w >= 2 && n >= ParallelMinRows && !par {
								t.Fatalf("%s: the survivor sort did not run in parallel", label)
							}
							if m < limit && m < n {
								t.Fatalf("%s: m=%d below the limit", label, m)
							}
							if prevM >= 0 && m != prevM {
								t.Fatalf("%s: m=%d differs from m=%d at the previous worker count (worker-dependent cut)",
									label, m, prevM)
							}
							prevM = m
							if m < n && sorted[m-1] == sorted[m] {
								t.Fatalf("%s: cut at %d splits a tie group (key %d)", label, m, sorted[m])
							}
							seen := make([]bool, n)
							for i := 0; i < m; i++ {
								if gotK[i] != sorted[i] {
									t.Fatalf("%s: keys[%d]=%d, full sort has %d", label, i, gotK[i], sorted[i])
								}
								oid := gotO[i]
								if seen[oid] {
									t.Fatalf("%s: oid %d appears twice in the survivor prefix", label, oid)
								}
								seen[oid] = true
								if keys[oid] != gotK[i] {
									t.Fatalf("%s: oids[%d]=%d points at key %d, output key is %d",
										label, i, oid, keys[oid], gotK[i])
								}
								if oid != stable[i] {
									t.Fatalf("%s: oids[%d]=%d, the stable full sort has %d", label, i, oid, stable[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTopKBoundaryTieStability pins the truncation boundary against a
// constructed tie stretch: with exactly limit-1 keys below a large
// all-equal plateau, the survivor set must extend through the whole
// plateau and the plateau's oids must come out in a reproducible order,
// under either kernel. Past ParallelMinRows rows either kernel must
// sort the plateau in parallel: the radix kernel's parallel sort
// (mergesort.parallel_sorts), the paper kernel's chunk sorts and chunk
// merge (faultinject.LoserMerge).
func TestTopKBoundaryTieStability(t *testing.T) {
	const limit = 100
	for _, n := range []int{2048, ParallelMinRows} {
		for _, bank := range Banks {
			for _, paperK := range []bool{false, true} {
				keys := make([]uint64, n)
				for i := 0; i < limit-1; i++ {
					keys[i] = uint64(i)
				}
				for i := limit - 1; i < n; i++ {
					keys[i] = uint64(limit + 500)
				}
				// Scatter deterministically so the plateau spans all chunks.
				rngState := uint64(12345)
				for i := n - 1; i > 0; i-- {
					rngState = rngState*6364136223846793005 + 1442695040888963407
					j := int(rngState % uint64(i+1))
					keys[i], keys[j] = keys[j], keys[i]
				}
				var base []uint32
				for _, w := range parWorkerCounts {
					var p Params
					if paperK {
						p = paperKernel(p, paper.Params{})
					}
					gotK := append([]uint64(nil), keys...)
					gotO := make([]uint32, n)
					for i := range gotO {
						gotO[i] = uint32(i)
					}
					var m int
					par := sortsInParallel(func() { m = mustTopK(t, bank, gotK, gotO, limit, p, w) })
					if w >= 2 && n >= ParallelMinRows && !par {
						t.Fatalf("bank=%d paper=%v workers=%d n=%d: the plateau was not sorted in parallel", bank, paperK, w, n)
					}
					if m != n {
						t.Fatalf("bank=%d paper=%v workers=%d: plateau not tie-extended: m=%d, want %d",
							bank, paperK, w, m, n)
					}
					for i := 1; i < limit-1; i++ {
						if gotK[i] < gotK[i-1] {
							t.Fatalf("bank=%d workers=%d: prefix unsorted at %d", bank, w, i)
						}
					}
					// Both kernels leave the plateau oid-ascending (the tie
					// contract TestKernelsAgree pins); within ONE worker count
					// it must at least be reproducible.
					gotK2 := append([]uint64(nil), keys...)
					gotO2 := make([]uint32, n)
					for i := range gotO2 {
						gotO2[i] = uint32(i)
					}
					if m2 := mustTopK(t, bank, gotK2, gotO2, limit, p, w); m2 != m {
						t.Fatalf("bank=%d workers=%d: rerun changed m: %d vs %d", bank, w, m2, m)
					}
					for i := range gotO {
						if gotO[i] != gotO2[i] {
							t.Fatalf("bank=%d paper=%v workers=%d: rerun diverges at %d", bank, paperK, w, i)
						}
					}
					if w == 1 {
						base = append([]uint32(nil), gotO[:limit-1]...)
					} else {
						for i := 0; i < limit-1; i++ {
							if gotO[i] != base[i] {
								t.Fatalf("bank=%d workers=%d: unique-key prefix oid diverges at %d", bank, w, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestTopKValidation pins the one error contract of the entry points:
// a violated precondition — mismatched slice lengths or run counts, an
// unsupported bank, limit < 1 — is a plain "mergesort:" error, never a
// panic, and the inputs are left untouched.
func TestTopKValidation(t *testing.T) {
	ctx := context.Background()
	keys := make([]uint64, 64)
	oids := make([]uint32, 64)
	for i := range keys {
		keys[i] = uint64(64 - i)
		oids[i] = uint32(i)
	}
	p := DefaultParams(4)
	topK := func(oids []uint32, limit int) error {
		_, err := TopKContext(ctx, 32, keys, oids, limit, p, 1)
		return err
	}
	cases := []struct {
		name string
		err  error
	}{
		{"sort len mismatch", SortScratchContext(ctx, 32, keys, oids[:10], p, nil)}, // 64 keys: the radix kernel's side of the cutoff
		{"sort on scratch len mismatch", SortScratchContext(ctx, 32, keys, oids[:10], p, new(Scratch))},
		{"paper kernel sort len mismatch", SortScratchContext(ctx, 32, keys, oids[:10], paperKernel(p, paper.Params{}), nil)},
		{"parallel sort len mismatch", ParallelSortWithParamsContext(ctx, 32, keys, oids[:10], p, 4)},
		{"sort bank 48", SortScratchContext(ctx, 48, keys, oids, p, nil)},
		{"sort on scratch bank 48", SortScratchContext(ctx, 48, keys, oids, p, new(Scratch))},
		{"small sort bank 48", SortScratchContext(ctx, 48, keys[:8], oids[:8], p, nil)},
		{"paper kernel sort bank 48", SortScratchContext(ctx, 48, keys, oids, paperKernel(p, paper.Params{}), nil)},
		{"parallel sort bank 48", ParallelSortWithParamsContext(ctx, 48, keys, oids, p, 4)},
		{"topk limit=0", topK(oids, 0)},
		{"topk limit=-3", topK(oids, -3)},
		{"topk len mismatch", topK(oids[:10], 5)},
		{"topk bank 48", func() error { _, err := TopKContext(ctx, 48, keys, oids, 5, p, 4); return err }()},
	}
	for _, c := range cases {
		switch {
		case c.err == nil:
			t.Errorf("%s: no error", c.name)
		case !strings.HasPrefix(c.err.Error(), "mergesort: "):
			t.Errorf("%s: error %q lacks the mergesort: prefix", c.name, c.err)
		}
	}
	for i := range keys {
		if keys[i] != uint64(64-i) || oids[i] != uint32(i) {
			t.Fatalf("a rejected call modified its inputs at %d", i)
		}
	}
}

// TestTopKFiltersBeforeTheSort pins what the radix select is for,
// through mergesort.topk_filtered_out: at a small limit on keys without
// a heavy tie, the cut keeps at most limit + n/16 rows (the boundary
// bucket stops refining at n/16 rows), so every other row is dropped
// before the survivor sort — in bank 16, and in bank 32, whose 16-bit
// keys share its top digit.
func TestTopKFiltersBeforeTheSort(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	filtered := func() int64 {
		for _, c := range obs.Snapshot().Counters {
			if c.Name == "mergesort.topk_filtered_out" {
				return c.Value
			}
		}
		t.Fatal("no mergesort.topk_filtered_out counter")
		return 0
	}
	const n, limit = 20000, 100
	for _, bank := range []int{16, 32} {
		for _, w := range []int{1, 4} {
			keys, oids := cancelKeys(n, 31)
			before := filtered()
			mustTopK(t, bank, keys, oids, limit, Params{}, w)
			if got, want := filtered()-before, int64(n-limit-n/16); got < want {
				t.Errorf("bank %d workers %d: %d rows filtered before the sort, want ≥ %d", bank, w, got, want)
			}
		}
	}
}
