package mergesort

import (
	"math/rand"
	"sort"
	"testing"
)

func TestRadixSortAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 5, 8, 9, 16, 17, 27, 32, 33, 48, 64} {
		for _, n := range []int{0, 1, 2, 23, 24, 100, 4096, 20000} {
			keys := randKeys(rng, n, width)
			orig := append([]uint64(nil), keys...)
			oids := identOids(n)
			RadixSort(keys, oids, width, DefaultRadixBits)
			verifySorted(t, orig, keys, oids)
		}
	}
}

func TestRadixSortStability(t *testing.T) {
	// Stable: equal keys keep their input order of oids.
	rng := rand.New(rand.NewSource(2))
	n := 10000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(16))
	}
	oids := identOids(n)
	RadixSort(keys, oids, 4, 8)
	for i := 1; i < n; i++ {
		if keys[i-1] == keys[i] && oids[i-1] > oids[i] {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func TestRadixSortRadixSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range []int{1, 4, 8, 11, 16} {
		keys := randKeys(rng, 5000, 33)
		orig := append([]uint64(nil), keys...)
		oids := identOids(5000)
		RadixSort(keys, oids, 33, r)
		verifySorted(t, orig, keys, oids)
	}
}

func TestRadixSortMatchesMergeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bank := range Banks {
		keys := randKeys(rng, 30000, bank)
		k2 := append([]uint64(nil), keys...)
		o1, o2 := identOids(30000), identOids(30000)
		mustSort(t, bank, keys, o1, Params{})
		RadixSort(k2, o2, bank, DefaultRadixBits)
		for i := range keys {
			if keys[i] != k2[i] {
				t.Fatalf("bank %d: key order differs at %d", bank, i)
			}
		}
	}
}

func TestRadixPasses(t *testing.T) {
	cases := []struct{ w, r, want int }{
		{8, 8, 1}, {9, 8, 2}, {16, 8, 2}, {17, 8, 3}, {64, 8, 8},
		{32, 11, 3}, {33, 11, 3}, {34, 11, 4},
	}
	for _, c := range cases {
		if got := RadixPasses(c.w, c.r); got != c.want {
			t.Errorf("RadixPasses(%d,%d) = %d, want %d", c.w, c.r, got, c.want)
		}
	}
}

func TestRadixSortPresortedAndTies(t *testing.T) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i % 7)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	orig := append([]uint64(nil), keys...)
	oids := identOids(len(keys))
	RadixSort(keys, oids, 3, 8)
	verifySorted(t, orig, keys, oids)
}

func BenchmarkRadixSort32_64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	src := randKeys(rng, n, 32)
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		for j := range oids {
			oids[j] = uint32(j)
		}
		RadixSort(keys, oids, 32, DefaultRadixBits)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}
