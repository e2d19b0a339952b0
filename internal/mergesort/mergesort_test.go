package mergesort_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// verifySorted checks the output is ascending and is a key-preserving
// permutation of the original pairing.
func verifySorted(t *testing.T, orig []uint64, keys []uint64, oids []uint32) {
	t.Helper()
	if len(keys) != len(orig) {
		t.Fatalf("length changed: %d vs %d", len(keys), len(orig))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted at %d: %v > %v", i, keys[i-1], keys[i])
		}
	}
	seen := make([]bool, len(orig))
	for i, o := range oids {
		if int(o) >= len(orig) || seen[o] {
			t.Fatalf("oid %d invalid or duplicated", o)
		}
		seen[o] = true
		if orig[o] != keys[i] {
			t.Fatalf("oid %d paired with key %v, want %v", o, keys[i], orig[o])
		}
	}
}

// checkBothKernels sorts a copy of keys with the production kernel and
// with the paper kernel and verifies each result against the input.
func checkBothKernels(t *testing.T, bank int, keys []uint64) {
	t.Helper()
	for _, p := range []Params{{}, paperKernel(Params{}, paper.Params{})} {
		got := append([]uint64(nil), keys...)
		oids := identOids(len(keys))
		mustSort(t, bank, got, oids, p)
		verifySorted(t, keys, got, oids)
	}
}

func identOids(n int) []uint32 {
	oids := make([]uint32, n)
	for i := range oids {
		oids[i] = uint32(i)
	}
	return oids
}

func randKeys(rng *rand.Rand, n, bits int) []uint64 {
	keys := make([]uint64, n)
	mask := ^uint64(0)
	if bits < 64 {
		mask = (1 << uint(bits)) - 1
	}
	for i := range keys {
		keys[i] = rng.Uint64() & mask
	}
	return keys
}

var testSizes = []int{0, 1, 2, 3, 5, 15, 16, 17, 23, 24, 31, 32, 33, 63, 64, 65,
	100, 255, 256, 257, 1000, 4095, 4096, 4097, 10000, 65536}

func TestSortAllBanksSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bank := range Banks {
		for _, n := range testSizes {
			keys := randKeys(rng, n, bank)
			checkBothKernels(t, bank, keys)
		}
	}
}

func TestSortManyTies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bank := range Banks {
		for _, domain := range []uint64{1, 2, 3, 7, 50} {
			n := 5000
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() % domain
			}
			checkBothKernels(t, bank, keys)
		}
	}
}

func TestSortPreSortedAndReversed(t *testing.T) {
	for _, bank := range Banks {
		for _, n := range []int{100, 1000, 5000} {
			mask := uint64(1)<<uint(bank) - 1
			if bank == 64 {
				mask = ^uint64(0)
			}
			asc := make([]uint64, n)
			for i := range asc {
				asc[i] = uint64(i) & mask
			}
			checkBothKernels(t, bank, asc)

			desc := make([]uint64, n)
			for i := range desc {
				desc[i] = uint64(n-i) & mask
			}
			checkBothKernels(t, bank, desc)
		}
	}
}

func TestSortMaxBoundaryValues(t *testing.T) {
	// Keys at the top of the bank's domain must not collide with any
	// internal sentinel handling.
	rng := rand.New(rand.NewSource(3))
	for _, bank := range Banks {
		max := ^uint64(0)
		if bank < 64 {
			max = (1 << uint(bank)) - 1
		}
		n := 3000
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = max
			case 1:
				keys[i] = 0
			default:
				keys[i] = rng.Uint64() & max
			}
		}
		checkBothKernels(t, bank, keys)
	}
}

func TestSortProperty(t *testing.T) {
	for _, bank := range Banks {
		bank := bank
		f := func(raw []uint64) bool {
			mask := ^uint64(0)
			if bank < 64 {
				mask = (1 << uint(bank)) - 1
			}
			keys := make([]uint64, len(raw))
			for i, r := range raw {
				keys[i] = r & mask
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for _, p := range []Params{{}, paperKernel(Params{}, paper.Params{})} {
				got := append([]uint64(nil), keys...)
				oids := identOids(len(keys))
				mustSort(t, bank, got, oids, p)
				for i := range got {
					if got[i] != want[i] || keys[oids[i]] != got[i] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("bank %d: %v", bank, err)
		}
	}
}

// TestSortForcedMultiway shrinks the paper kernel's in-cache run target
// so phase 3 runs several multiway passes through the loser tree,
// offset-value coded and plain, from all-unique to nearly-all-tied
// keys: both settings must sort, and agree byte for byte — the kernel
// orders its ties, so the oids of each key agree too.
func TestSortForcedMultiway(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	for _, bank := range Banks {
		for _, dup := range []float64{0, 0.5, 0.99} {
			keys := randKeys(rng, n, bank)
			for i := range keys {
				if rng.Float64() < dup {
					keys[i] = keys[0]
				}
			}
			var gotK [2][]uint64
			var gotO [2][]uint32
			for i, disable := range []bool{false, true} {
				gotK[i], gotO[i] = append([]uint64(nil), keys...), identOids(n)
				mustSort(t, bank, gotK[i], gotO[i], paperKernel(Params{}, paper.Params{InCacheElems: 64, Fanout: 4, DisableOVC: disable}))
				verifySorted(t, keys, gotK[i], gotO[i])
			}
			for i := range keys {
				if gotK[0][i] != gotK[1][i] || gotO[0][i] != gotO[1][i] {
					t.Fatalf("bank=%d dup=%v: OVC on/off disagree at %d", bank, dup, i)
				}
			}
		}
	}
}

// randomRuns builds k ascending runs of tie-heavy keys, some of them
// empty, with the run boundaries.
func randomRuns(rng *rand.Rand, k int) ([]uint64, []int) {
	var keys []uint64
	runs := []int{0}
	for r := 0; r < k; r++ {
		run := make([]uint64, rng.Intn(4)*rng.Intn(20)) // empty about one time in four
		for i := range run {
			run[i] = rng.Uint64() % 100
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		keys = append(keys, run...)
		runs = append(runs, len(keys))
	}
	return keys, runs
}

func BenchmarkSortBank16_64K(b *testing.B) { benchSort(b, 16, 1<<16) }
func BenchmarkSortBank32_64K(b *testing.B) { benchSort(b, 32, 1<<16) }
func BenchmarkSortBank64_64K(b *testing.B) { benchSort(b, 64, 1<<16) }

func benchSort(b *testing.B, bank, n int) {
	rng := rand.New(rand.NewSource(1))
	src := randKeys(rng, n, bank)
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		for j := range oids {
			oids[j] = uint32(j)
		}
		mustSort(b, bank, keys, oids, Params{})
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}
