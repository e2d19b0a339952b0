package mergesort_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// bankFor returns the narrowest bank that holds width-bit keys.
func bankFor(width int) int {
	for _, b := range Banks {
		if width <= b {
			return b
		}
	}
	return 64
}

// mustRadix runs the production kernel directly, whatever the run
// length, under context.Background().
func mustRadix(tb testing.TB, bank int, keys []uint64, oids []uint32) {
	tb.Helper()
	if err := RadixSort(context.Background(), bank, keys, oids, new(Scratch)); err != nil {
		tb.Fatal(err)
	}
}

// TestRadixSortAllWidths sorts every kind of width — one digit, digit
// boundaries of the 8-bit pair digits and of the packed 11-bit ones
// (11, 12, 22, 23), full banks — at run lengths on both sides of the
// packed kernel's crossover.
func TestRadixSortAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 5, 8, 9, 11, 12, 16, 17, 22, 23, 27, 32, 33, 48, 64} {
		for _, n := range []int{1, 2, 23, 24, 100, PackMinRows - 1, PackMinRows, PackMinRows + 1, 4096, 20000} {
			keys := randKeys(rng, n, width)
			orig := append([]uint64(nil), keys...)
			oids := identOids(n)
			mustRadix(t, bankFor(width), keys, oids)
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
	mustRadix(t, 16, keys, oids)
	for i := 1; i < n; i++ {
		if keys[i-1] == keys[i] && oids[i-1] > oids[i] {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func TestRadixSortMatchesMergeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bank := range Banks {
		keys := randKeys(rng, 30000, bank)
		k2 := append([]uint64(nil), keys...)
		o1, o2 := identOids(30000), identOids(30000)
		mustSort(t, bank, keys, o1, paperKernel(Params{}, paper.Params{}))
		mustSort(t, bank, k2, o2, Params{})
		for i := range keys {
			if keys[i] != k2[i] {
				t.Fatalf("bank %d: key order differs at %d", bank, i)
			}
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
	mustRadix(t, 16, keys, oids)
	verifySorted(t, orig, keys, oids)
}

// TestRadixSortSkipsConstantDigits pins the width-awareness: the one
// counting pre-pass finds the digits every key agrees on, and only the
// others cost a scatter — an 18-bit key in a 32-bit bank two packed
// 11-bit digits (three 8-bit pair digits below the crossover), keys
// that differ in the top digit only one, equal keys none — whatever the
// bank has room for.
func TestRadixSortSkipsConstantDigits(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	radixPasses := obs.NewCounter("mergesort.radix_passes")
	rng := rand.New(rand.NewSource(6))
	const n = 4096
	gen := func(f func() uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f()
		}
		return keys
	}
	for _, c := range []struct {
		name   string
		bank   int
		keys   []uint64
		passes int64
	}{
		{"18 bits in bank 32", 32, randKeys(rng, n, 18), 2},
		{"18 bits in bank 32, pairs", 32, randKeys(rng, PackMinRows-1, 18), 3},
		{"29 bits in bank 32", 32, randKeys(rng, n, 29), 3},
		{"16 bits in bank 16", 16, randKeys(rng, n, 16), 2},
		{"16 bits in bank 64", 64, randKeys(rng, n, 16), 2},
		{"full bank 64", 64, randKeys(rng, n, 64), 8},
		{"top digit only", 64, gen(func() uint64 { return uint64(rng.Intn(256))<<56 | 0x00c0ffee }), 1},
		{"bottom digit only", 32, gen(func() uint64 { return 0xabcdef00 | uint64(rng.Intn(256)) }), 1},
		{"middle digits constant", 32, gen(func() uint64 { return uint64(rng.Intn(256))<<24 | 0x00777700 | uint64(rng.Intn(256)) }), 2},
		{"all equal", 16, gen(func() uint64 { return 42 }), 0},
	} {
		orig := append([]uint64(nil), c.keys...)
		oids := identOids(len(c.keys))
		before := radixPasses.Value()
		mustRadix(t, c.bank, c.keys, oids)
		if got := radixPasses.Value() - before; got != c.passes {
			t.Errorf("%s: %d scatter passes, want %d", c.name, got, c.passes)
		}
		want := slices.Clone(orig)
		slices.Sort(want)
		checkKernelOutput(t, c.name, orig, want, c.keys, oids)
	}
}

// TestRadixSortCancelBetweenScatters cancels a sort at every poll the
// kernel makes — before each scatter, the one between the second and
// third scatter of a 64-bit-bank sort among them, and before the
// copy-back of a single-digit sort — on pairs and on packed words,
// whose middle scatter of three moves words between scratch arrays
// only: it returns ctx.Err() with keys and oids exactly as passed in,
// and one poll more than that lets it finish — the last pass, the only
// one that writes the caller's slices, is not interruptible.
func TestRadixSortCancelBetweenScatters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 5000
	for _, c := range []struct {
		name  string
		bank  int
		width int
		rows  int
		polls int64 // one per scatter (+ the copy-back)
	}{
		{"bank 64", 64, 64, n, 8},
		{"bank 32, 18 bits", 32, 18, n, 2},
		{"bank 32, 18 bits, pairs", 32, 18, PackMinRows - 1, 3},
		{"bank 32, 29 bits, packed", 32, 29, n, 3},
		{"bank 32, one packed digit", 32, 11, n, 1 + 1},
		{"bank 16, one digit", 16, 8, n, 1 + 1},
	} {
		keys := randKeys(rng, c.rows, c.width)
		oids := identOids(c.rows)
		wantK, wantO := slices.Clone(keys), slices.Clone(oids)
		for polls := int64(0); polls < c.polls; polls++ {
			if err := RadixSort(testutil.NewPollCtx(polls), c.bank, keys, oids, new(Scratch)); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at poll %d: err = %v, want context.Canceled", c.name, polls+1, err)
			}
			if !slices.Equal(keys, wantK) || !slices.Equal(oids, wantO) {
				t.Fatalf("%s cancelled at poll %d: inputs modified", c.name, polls+1)
			}
		}
		if err := RadixSort(testutil.NewPollCtx(c.polls), c.bank, keys, oids, new(Scratch)); err != nil {
			t.Fatalf("%s: %v within a budget of %d polls", c.name, err, c.polls)
		}
		verifySorted(t, wantK, keys, oids)
	}
}

// TestSmallAndBatchedSortsDoNotAllocate pins the two allocation facts
// mcsort's later rounds rely on: a run below the small-run cutoff is an
// in-place insertion sort, and runs above it sharing one Scratch
// allocate once, for the largest, not once each — on pairs, and on
// packed words past the crossover, whose histograms live in the
// Scratch too.
func TestSmallAndBatchedSortsDoNotAllocate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ bank, n int }{
		{16, 4 * SmallRunCutoff}, {32, 4 * SmallRunCutoff}, {64, 4 * SmallRunCutoff},
		{16, 4 * PackMinRows}, {32, 4 * PackMinRows},
	} {
		bank, n := c.bank, c.n
		src := randKeys(rng, n, bank)
		keys, oids := make([]uint64, n), make([]uint32, n)
		refill := func() {
			copy(keys, src)
			for i := range oids {
				oids[i] = uint32(i)
			}
		}
		small := SmallRunCutoff - 1
		if got := testing.AllocsPerRun(20, func() {
			refill()
			if err := SortScratchContext(ctx, bank, keys[:small], oids[:small], Params{}, nil); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("bank %d, %d rows: a %d-row sort made %v allocations, want 0", bank, n, small, got)
		}
		var s Scratch
		if err := SortScratchContext(ctx, bank, keys, oids, Params{}, &s); err != nil { // sizes s
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			refill()
			for _, m := range []int{n, n / 2, n / 4} {
				if err := SortScratchContext(ctx, bank, keys[:m], oids[:m], Params{}, &s); err != nil {
					t.Fatal(err)
				}
			}
		}); got != 0 {
			t.Errorf("bank %d, %d rows: sorts on a sized Scratch made %v allocations, want 0", bank, n, got)
		}
	}
}

// TestRadixChunksCapped pins the chunk floor of the parallel radix
// sort: whatever the worker count, a cut holds at most one chunk per
// worker and per minChunkRows rows, and covers [0, n) in ascending
// bounds — a 16,384-row cooperative group at the 1,024 workers the
// server admits is four chunks, not 1,024 chunks of 16 rows.
func TestRadixChunksCapped(t *testing.T) {
	for _, n := range []int{0, 1, MinChunkRows - 1, MinChunkRows, 2*MinChunkRows - 1, 2 * MinChunkRows, 1 << 14, 1<<14 + 1, 1 << 20} {
		for _, w := range []int{1, 2, 3, 8, 256, 257, 300, 1024} {
			bounds := RadixChunks(n, w)
			if chunks := len(bounds) - 1; chunks > w || chunks > max(n/MinChunkRows, 1) {
				t.Fatalf("n=%d workers=%d: %d chunks, cap %d", n, w, chunks, min(w, max(n/MinChunkRows, 1)))
			}
			if bounds[0] != 0 || bounds[len(bounds)-1] != n {
				t.Fatalf("n=%d workers=%d: bounds %v do not span [0, %d]", n, w, bounds, n)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] {
					t.Fatalf("n=%d workers=%d: bounds %v not ascending", n, w, bounds)
				}
			}
		}
	}
	if got := len(RadixChunks(1<<14, 1024)) - 1; got != 4 {
		t.Fatalf("a 16,384-row sort at 1,024 workers cut into %d chunks, want 4", got)
	}
}

func BenchmarkRadixSort32_64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	src := randKeys(rng, n, 32)
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		for j := range oids {
			oids[j] = uint32(j)
		}
		if err := RadixSort(context.Background(), 32, keys, oids, &s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}
