package paper

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// The paper kernel's cells of internal/mergesort's bake-off, over the
// same keys and in the same ns/row, under the same cell names: `make
// bakeoff` prints them beside the production kernel's, and CI runs them
// at -benchtime 1x as a compile-and-run smoke.

// BenchmarkKernelBakeoff sorts bakeoffRows rows cut into runs of n (one
// run when n is larger) with the paper kernel at one worker, each run
// refilled from the same source first, inside the clock.
func BenchmarkKernelBakeoff(b *testing.B) {
	ctx := context.Background()
	for _, bank := range []int{16, 32, 64} {
		for _, dup := range []string{"unique", "zipf", "allequal"} {
			for _, n := range []int{24, 32, 48, 64, 96, 128, 256, 1 << 10, 1 << 14, 1 << 16, 1 << 19} {
				rows := max(n, bakeoffRows) / n * n
				src := bakeoffKeys(rows, bank, dup)
				keys := make([]uint64, rows)
				oids := make([]uint32, rows)
				b.Run(fmt.Sprintf("bank=%d/%s/n=%d/paper", bank, dup, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(keys, src)
						for j := range oids {
							oids[j] = uint32(j)
						}
						for lo := 0; lo < rows; lo += n {
							if err := (Params{}).Sort(ctx, bank, keys[lo:lo+n], oids[lo:lo+n], 1); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				})
			}
		}
	}
}

// BenchmarkParallelSort times the paper kernel's parallel sort — chunk
// sorts and chunk merge at two workers, the path the figure experiments
// time — over parallelBenchRows rows of every bank × {unique, zipf}
// keys, refilled inside the clock.
func BenchmarkParallelSort(b *testing.B) {
	ctx := context.Background()
	const n = parallelBenchRows
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	for _, bank := range []int{16, 32, 64} {
		for _, dup := range []string{"unique", "zipf"} {
			src := bakeoffKeys(n, bank, dup)
			b.Run(fmt.Sprintf("bank=%d/%s/paper/workers=2", bank, dup), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					for j := range oids {
						oids[j] = uint32(j)
					}
					if err := (Params{}).Sort(ctx, bank, keys, oids, 2); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}

// parallelBenchRows and bakeoffRows are internal/mergesort's bake-off
// sizes.
const (
	parallelBenchRows = 1 << 19
	bakeoffRows       = 1 << 16
)

// bakeoffKeys draws the keys of internal/mergesort's bake-off: rows keys
// of the bank's width, uniform random, zipf-skewed, or all equal, from
// the same seed.
func bakeoffKeys(rows, bank int, dup string) []uint64 {
	rng := rand.New(rand.NewSource(int64(bank)))
	zipf := rand.NewZipf(rng, 1.2, 1.3, uint64(rows))
	mask := ^uint64(0) >> uint(64-bank)
	keys := make([]uint64, rows)
	for i := range keys {
		switch dup {
		case "unique":
			keys[i] = rng.Uint64() & mask
		case "zipf":
			keys[i] = zipf.Uint64() & mask
		default:
			keys[i] = 42
		}
	}
	return keys
}
