package mergesort_test

import (
	"math/rand"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/obs"
)

// TestCostModelMirrorsKernel pins the layout the cost model prices
// (LayoutOf, which costmodel.TRadix reads) to what the kernel does: with
// every digit below the key's width live, the scatters a sort counts
// (mergesort.radix_passes) are LayoutOf's Digits, for pairs and packed
// words, on both sides of the 8- and 11-bit digit boundaries and of
// PackMinRows; below SmallRunCutoff, where TRadix prices an insertion
// sort, there are none.
func TestCostModelMirrorsKernel(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	radixPasses := obs.NewCounter("mergesort.radix_passes")
	rng := rand.New(rand.NewSource(9))
	widths := []int{1, 7, 8, 9, 10, 11, 12, 15, 16, 17, 21, 22, 23, 24, 25, 31, 32, 33, 40, 41, 63, 64}
	for _, bank := range []int{16, 32, 64} {
		for _, width := range widths {
			if width > bank {
				continue
			}
			for _, n := range []int{SmallRunCutoff - 1, SmallRunCutoff, PackMinRows - 1, PackMinRows, 3 * PackMinRows} {
				keys := randKeys(rng, n, width)
				// Two keys that differ in every bit below the width
				// make every digit it reaches live.
				keys[0], keys[n/2] = 0, ^uint64(0)>>(64-width)
				before := radixPasses.Value()
				mustSort(t, bank, keys, identOids(n), Params{})
				got := radixPasses.Value() - before
				l := LayoutOf(float64(n), bank, width)
				want := int64(l.Digits)
				if n < SmallRunCutoff {
					want = 0
				}
				if got != want {
					t.Errorf("bank %d, width %d, n %d: the kernel counted %d scatters, want %d (LayoutOf %+v)", bank, width, n, got, want, l)
				}
			}
		}
	}
}
