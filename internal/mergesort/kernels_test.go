package mergesort_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// kernelInputs is the duplicate battery of TestKernelsAgree: uniform
// random keys, half of them collapsed onto one value, zipf-skewed,
// all-equal, and keys that differ only in the bank's top digit or only
// in its bottom digit — the cases where the production kernel skips all
// scatters but one.
func kernelInputs(n, bank int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.3, uint64(n/2+1))
	cases := map[string][]uint64{}
	for _, name := range []string{"unique", "half", "zipf", "allequal", "topdigit", "bottomdigit"} {
		cases[name] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		u := rng.Uint64() & maskFor(bank)
		cases["unique"][i] = u
		cases["half"][i] = u
		if rng.Intn(2) == 0 {
			cases["half"][i] = 7
		}
		cases["zipf"][i] = zipf.Uint64() & maskFor(bank)
		cases["allequal"][i] = 42
		cases["topdigit"][i] = (u>>uint(bank-8))<<uint(bank-8) | 0x5a
		cases["bottomdigit"][i] = (0xa5a5a5a5a5a5a500 | u&0xff) & maskFor(bank)
	}
	return cases
}

// checkKernelOutput holds one sort output to the oracle: k is the prefix
// of want (the input keys, sorted) it claims to be, o pairs every slot
// with a distinct input row carrying that slot's key, and equal keys
// keep their input order (oids ascending, the input being the identity).
// Together that is exactly sort.SliceStable's answer on (key, oid)
// pairs.
func checkKernelOutput(tb testing.TB, where string, keys, want, k []uint64, o []uint32) {
	tb.Helper()
	if !slices.Equal(k, want[:len(k)]) {
		tb.Fatalf("%s: keys differ from the sorted input", where)
	}
	seen := make([]bool, len(keys))
	for j, oid := range o {
		if int(oid) >= len(keys) || seen[oid] || keys[oid] != k[j] {
			tb.Fatalf("%s: oids[%d]=%d is out of range, repeated or carries another key", where, j, oid)
		}
		seen[oid] = true
		if j > 0 && k[j-1] == k[j] && o[j-1] > oid {
			tb.Fatalf("%s: not stable at %d", where, j)
		}
	}
}

// TestKernelsAgree pins the two kernels to one oracle on every entry
// point that sorts (checkKernelOutput): production ≡ paper kernel ≡
// the sorted keys, oids a key-preserving permutation ascending inside
// every run of equal keys — sort.SliceStable's answer, which the
// production kernel gives by stability and the paper kernel, plugged in
// through Params.Sort, by ordering its ties — through the sequential
// sort, the parallel sort and the top-K sort, across the run lengths
// where the kernel choice changes and past ParallelMinRows, where
// either kernel must sort in parallel (sortsInParallel).
func TestKernelsAgree(t *testing.T) {
	sizes := []int{0, 1, 23, 24, SmallRunCutoff - 1, SmallRunCutoff, SmallRunCutoff + 1, 1 << 10, 1<<16 + 1}
	for _, bank := range Banks {
		for _, n := range sizes {
			for name, keys := range kernelInputs(n, bank, int64(bank+n)) {
				want := slices.Clone(keys)
				slices.Sort(want)
				for _, workers := range []int{1, 2, 3} {
					// check sorts a copy of keys under both kernels with
					// run, which returns how many leading elements it
					// sorted, and holds both to the oracle's prefix.
					// From ParallelMinRows sorted rows on, either kernel's
					// run must take its parallel sort.
					check := func(entry string, sorted int, run func(p Params, k []uint64, o []uint32) int) {
						t.Helper()
						where := fmt.Sprintf("%s bank=%d n=%d %s workers=%d", entry, bank, n, name, workers)
						var ms [2]int
						for i, p := range []Params{{}, paperKernel(Params{}, paper.Params{})} {
							k, o := slices.Clone(keys), identOids(n)
							par := sortsInParallel(func() { ms[i] = run(p, k, o) })
							if workers >= 2 && sorted >= ParallelMinRows && !par {
								t.Fatalf("%s paper=%v: the parallel sort never ran", where, i == 1)
							}
							checkKernelOutput(t, fmt.Sprintf("%s paper=%v", where, i == 1), keys, want, k[:ms[i]], o[:ms[i]])
						}
						if ms[0] != ms[1] {
							t.Fatalf("%s: production sorted %d elements, paper kernel %d", where, ms[0], ms[1])
						}
					}
					if workers == 1 {
						check("Sort", 0, func(p Params, k []uint64, o []uint32) int {
							mustSort(t, bank, k, o, p)
							return n
						})
					}
					check("ParallelSort", n, func(p Params, k []uint64, o []uint32) int {
						mustParallelSort(t, bank, k, o, p, workers)
						return n
					})
					// The top-K sort returns at least min(limit, n)
					// sorted elements: a cut that lost rows would pass
					// checkKernelOutput on its short prefix.
					for _, limit := range []int{1, n / 8, n/2 + 1} {
						if limit < 1 {
							continue
						}
						check(fmt.Sprintf("TopK limit=%d", limit), min(limit, n), func(p Params, k []uint64, o []uint32) int {
							m := mustTopK(t, bank, k, o, limit, p, workers)
							if m < min(limit, n) {
								t.Fatalf("TopK bank=%d n=%d %s workers=%d limit=%d: m=%d", bank, n, name, workers, limit, m)
							}
							return m
						})
					}
				}
			}
		}
	}
}
