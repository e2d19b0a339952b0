package mergesort_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// Oracle-differential tests for the merges of sorted runs and the
// parallel sort.
//
// MergeRunsContext promises the ascending merge of its words for every
// worker count — the oracle is slices.Sort over the concatenated runs —
// and the paper's packed merge (paper.MergePacked) the merge of (key,
// oid) pairs stable by run index; its oracle is an independent
// implementation — sort.SliceStable over (key, run index), which
// preserves intra-run order by stability. ParallelSort under the
// production kernel promises exactly Sort's output, ties included.

var parWorkerCounts = []int{1, 2, 3, 4, 8}

func maskFor(bank int) uint64 {
	if bank < 64 {
		return uint64(1)<<uint(bank) - 1
	}
	return ^uint64(0)
}

// adversarialInputs builds the distributions the determinism battery
// runs: uniform random, all-equal, pre-sorted, reverse-sorted,
// zipf-skewed (a handful of huge tie runs plus a long tail), keys whose
// top byte is 0xA5 in every row above varied low digits (highdigit),
// and keys 18 bits wide, 10 in bank 16, so the bank's top digits are
// zero (deadtop) — the two shapes where a select must carry the digits
// every key shares into its cut.
func adversarialInputs(n int, bank int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := maskFor(bank)
	zipf := rand.NewZipf(rng, 1.3, 1.5, uint64(n/4+1))
	cases := map[string][]uint64{
		"uniform":   make([]uint64, n),
		"allequal":  make([]uint64, n),
		"sorted":    make([]uint64, n),
		"reverse":   make([]uint64, n),
		"zipf":      make([]uint64, n),
		"highdigit": make([]uint64, n),
		"deadtop":   make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		u := rng.Uint64()
		cases["uniform"][i] = u & mask
		cases["allequal"][i] = 42 & mask
		cases["sorted"][i] = uint64(i) & mask
		cases["reverse"][i] = uint64(n-i) & mask
		cases["zipf"][i] = zipf.Uint64() & mask
		cases["highdigit"][i] = 0xA5<<uint(bank-8) | u&(mask>>8)
		cases["deadtop"][i] = u & maskFor(min(18, bank-6))
	}
	return cases
}

// mergeOracle merges pre-sorted runs stably by run index with the
// standard library.
func mergeOracle(keys []uint64, oids []uint32, runs []int) ([]uint64, []uint32) {
	type elem struct {
		key uint64
		oid uint32
		run int
	}
	elems := make([]elem, len(keys))
	for r := 0; r+1 < len(runs); r++ {
		for i := runs[r]; i < runs[r+1]; i++ {
			elems[i] = elem{keys[i], oids[i], r}
		}
	}
	sort.SliceStable(elems, func(i, j int) bool {
		if elems[i].key != elems[j].key {
			return elems[i].key < elems[j].key
		}
		return elems[i].run < elems[j].run
	})
	k := make([]uint64, len(keys))
	o := make([]uint32, len(oids))
	for i, e := range elems {
		k[i], o[i] = e.key, e.oid
	}
	return k, o
}

func TestParallelMergeMatchesOracle(t *testing.T) {
	const n = 3000
	for _, bank := range Banks {
		for name, keys := range adversarialInputs(n, bank, int64(bank)) {
			for _, nRuns := range []int{2, 3, 5, 9} {
				oids := make([]uint32, n)
				for i := range oids {
					oids[i] = uint32(i)
				}
				k := append([]uint64(nil), keys...)
				runs := sortedRuns(k, oids, nRuns)
				wantK, wantO := mergeOracle(k, oids, runs)
				packedK := append([]uint64(nil), k...)
				packedO := append([]uint32(nil), oids...)
				mustMergePacked(t, bank, packedK, packedO, runs, paper.Params{})
				checkMerged(t, fmt.Sprintf("%s bank=%d runs=%d packed", name, bank, nRuns), packedK, packedO, wantK, wantO)
				want := sortedPrefix(k, 0)
				for _, w := range parWorkerCounts {
					got := mustMergeRuns(t, k, runs, 0, w)
					checkWords(t, fmt.Sprintf("%s bank=%d runs=%d workers=%d", name, bank, nRuns, w), got, want)
				}
			}
		}
	}
}

// checkMerged fails unless got is exactly want, keys and oids.
func checkMerged(t *testing.T, label string, gotK []uint64, gotO []uint32, wantK []uint64, wantO []uint32) {
	t.Helper()
	if len(gotK) != len(wantK) || len(gotO) != len(wantO) {
		t.Fatalf("%s: %d keys and %d oids, want %d", label, len(gotK), len(gotO), len(wantK))
	}
	for i := range gotK {
		if gotK[i] != wantK[i] || gotO[i] != wantO[i] {
			t.Fatalf("%s: diverges at %d: got (%d,%d) want (%d,%d)", label, i, gotK[i], gotO[i], wantK[i], wantO[i])
		}
	}
}

// sortedRuns cuts keys/oids into nRuns runs and stably sorts each run
// by key (intra-run ties keep input order).
func sortedRuns(keys []uint64, oids []uint32, nRuns int) []int {
	n := len(keys)
	runs := []int{0}
	for r := 1; r < nRuns; r++ {
		b := n * r / nRuns
		if b > runs[len(runs)-1] {
			runs = append(runs, b)
		}
	}
	if n > runs[len(runs)-1] {
		runs = append(runs, n)
	}
	for r := 0; r+1 < len(runs); r++ {
		lo, hi := runs[r], runs[r+1]
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[lo+idx[a]] < keys[lo+idx[b]] })
		sk := make([]uint64, hi-lo)
		so := make([]uint32, hi-lo)
		for i, j := range idx {
			sk[i], so[i] = keys[lo+j], oids[lo+j]
		}
		copy(keys[lo:hi], sk)
		copy(oids[lo:hi], so)
	}
	return runs
}

// TestParallelSortMatchesSequential pins the production parallel sort
// to the sequential one byte for byte, oids included — stability is a
// property of the parallel radix sort itself — at every worker count,
// including more workers than chunks, on both sides of the cut-off:
// below ParallelMinRows rows the sequential kernel runs, from there on
// the chunked one does.
func TestParallelSortMatchesSequential(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	obs.Enable()
	defer obs.Disable()
	parSorts := obs.NewCounter("mergesort.parallel_sorts")
	for _, bank := range Banks {
		var p Params
		for _, n := range []int{0, 1, 65, 1000, 5000, 2 * MinChunkRows, ParallelMinRows - 1, ParallelMinRows, ParallelMinRows + 3*MinChunkRows + 5} {
			for name, keys := range adversarialInputs(n, bank, 7) {
				wantK := append([]uint64(nil), keys...)
				wantO := identOids(n)
				mustSort(t, bank, wantK, wantO, p)
				for _, w := range append(parWorkerCounts[1:], 300) {
					gotK := append([]uint64(nil), keys...)
					gotO := identOids(n)
					before := parSorts.Value()
					mustParallelSort(t, bank, gotK, gotO, p, w)
					if parallel := n >= ParallelMinRows; (parSorts.Value() > before) != parallel {
						t.Fatalf("%s bank=%d n=%d workers=%d: parallel path taken = %v, want %v", name, bank, n, w, !parallel, parallel)
					}
					for i := range gotK {
						if gotK[i] != wantK[i] {
							t.Fatalf("%s bank=%d n=%d workers=%d: key diverges at %d", name, bank, n, w, i)
						}
						if gotO[i] != wantO[i] {
							t.Fatalf("%s bank=%d n=%d workers=%d: oid diverges at %d (key %d)", name, bank, n, w, i, gotK[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelSortChunksCountPhases pins that the chunk sorts of the
// paper kernel's parallel sort run the one three-phase driver: with the
// in-cache run target forced down, every chunk needs multiway passes,
// and they show up on the same counter the sequential sort feeds.
func TestParallelSortChunksCountPhases(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const n = 20000
	keys := adversarialInputs(n, 32, 5)["uniform"]
	phase3 := obs.NewCounter("mergesort.phase3_merge_passes")
	before := phase3.Value()
	mustParallelSort(t, 32, keys, identOids(n), forcePhase3(32, paper.Params{}), 4)
	if got := phase3.Value() - before; got < 4 {
		t.Fatalf("4 chunk sorts with forced multiway merging counted %d phase-3 passes", got)
	}
}

// TestSplitRunsConsistency pins the one selection against the stable
// merge oracle, over runs some of which are empty: for any rank t the
// cuts select exactly the first t rows of the (key, run index) merge —
// the word merge's shares and the paper kernel's pair merge's alike —
// and keyAtRank names the key at each rank.
func TestSplitRunsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		for _, k := range []int{3, 5, 8, 9} {
			keys, runs := randomRuns(rng, k)
			wantK, wantPos := mergeOracle(keys, identOids(len(keys)), runs)
			split := splitAt(keys, runs)
			for t0 := 0; t0 <= len(wantK); t0++ {
				if t0 > 0 {
					if got := KeyAtRank(split, t0); got != wantK[t0-1] {
						t.Fatalf("k=%d rank %d: selected key %d, merge has %d", k, t0, got, wantK[t0-1])
					}
				}
				cuts := SplitRuns(split, t0)
				below := map[uint32]bool{}
				for r := range split {
					if cuts[r] < 0 || cuts[r] > len(split[r]) {
						t.Fatalf("k=%d t=%d: cut %d out of run bounds", k, t0, r)
					}
					for i := 0; i < cuts[r]; i++ {
						below[uint32(runs[r]+i)] = true
					}
				}
				if len(below) != t0 {
					t.Fatalf("k=%d t=%d: cuts select %d elements", k, t0, len(below))
				}
				for _, pos := range wantPos[:t0] {
					if !below[pos] {
						t.Fatalf("k=%d t=%d: element %d is in the merge's first %d but above its cut", k, t0, pos, t0)
					}
				}
			}
		}
	}
}

// TestParallelMergeOVCOnOffIdentical sweeps key cardinality (all-ties
// through nearly-unique) and pins that the offset-value-coded packed
// merge and the plain one produce byte-identical (keys, oids) — the
// stable oracle's — and MergeRunsContext at every worker count their
// keys.
func TestParallelMergeOVCOnOffIdentical(t *testing.T) {
	const n = 4000
	for _, bank := range Banks {
		for _, card := range []int{1, 2, 16, 1024} {
			rng := rand.New(rand.NewSource(int64(bank*10000 + card)))
			keys := make([]uint64, n)
			oids := make([]uint32, n)
			mask := maskFor(bank)
			for i := range keys {
				keys[i] = uint64(rng.Intn(card)) * 0x9E3779B1 & mask
				oids[i] = uint32(i)
			}
			runs := sortedRuns(keys, oids, 6)
			wantK, wantO := mergeOracle(keys, oids, runs)
			for _, disableOVC := range []bool{false, true} {
				gotK := append([]uint64(nil), keys...)
				gotO := append([]uint32(nil), oids...)
				mustMergePacked(t, bank, gotK, gotO, runs, paper.Params{DisableOVC: disableOVC})
				checkMerged(t, fmt.Sprintf("bank=%d card=%d ovcOff=%v", bank, card, disableOVC), gotK, gotO, wantK, wantO)
			}
			for _, w := range []int{1, 2, 4, 8} {
				got := mustMergeRuns(t, keys, runs, 0, w)
				checkWords(t, fmt.Sprintf("bank=%d card=%d workers=%d", bank, card, w), got, wantK)
			}
		}
	}
}

// TestZeroParamsResolveToDefaults pins that the zero Params is
// DefaultParams(bank/8), byte for byte, ties included, on all three
// entry points that take one, and that it sorts in parallel from
// ParallelMinRows rows on: the parallel sort (mergesort.parallel_sorts)
// and the top-K select (mergesort.topk_sorts) both run at n.
func TestZeroParamsResolveToDefaults(t *testing.T) {
	const n, workers, limit = 40000, 4, 3000 // n above ParallelMinRows
	type run func(p Params, keys []uint64, oids []uint32) int
	for _, bank := range Banks {
		entries := map[string]run{
			"Sort": func(p Params, k []uint64, o []uint32) int {
				mustSort(t, bank, k, o, p)
				return len(k)
			},
			"ParallelSort": func(p Params, k []uint64, o []uint32) int {
				mustParallelSort(t, bank, k, o, p, workers)
				return len(k)
			},
			"TopK": func(p Params, k []uint64, o []uint32) int {
				return mustTopK(t, bank, k, o, limit, p, workers)
			},
		}
		src := adversarialInputs(n, bank, int64(bank))["zipf"]
		for name, entry := range entries {
			var got [2][]uint64
			var gotO [2][]uint32
			var m [2]int
			for i, p := range []Params{{}, DefaultParams(bank / 8)} {
				k := append([]uint64(nil), src...)
				o := identOids(n)
				bumps := testutil.Bumps(func() { m[i] = entry(p, k, o) }, "mergesort.parallel_sorts", "mergesort.topk_sorts")
				if par, topK := bumps[0] > 0, bumps[1] > 0; name == "ParallelSort" && !par || name == "TopK" && !topK {
					t.Fatalf("bank=%d %s: parallel sort %v, top-K select %v at %d rows", bank, name, par, topK, n)
				}
				got[i], gotO[i] = k[:m[i]], o[:m[i]]
			}
			if m[0] != m[1] {
				t.Fatalf("bank=%d %s: %d elements, want %d", bank, name, m[0], m[1])
			}
			for i := range got[0] {
				if got[0][i] != got[1][i] || gotO[0][i] != gotO[1][i] {
					t.Fatalf("bank=%d %s: diverges from explicit defaults at %d", bank, name, i)
				}
			}
		}
	}
}
