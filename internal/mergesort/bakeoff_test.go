package mergesort_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	. "repro/internal/mergesort"
)

// BenchmarkKernelBakeoff is the measurement behind the production
// kernel and SmallRunCutoff: every candidate kernel on every (bank, run
// length, duplicates) cell, in ns/row — the paper kernel's cells are
// internal/mergesort/paper's BenchmarkKernelBakeoff, over the same keys.
// One iteration sorts bakeoffRows rows cut into runs of n (one run when
// n is larger), each refilled from the same source first — the refill,
// a copy and an identity fill, is inside the clock and costs well under
// 1 ns/row. Keys fill the bank; the radix kernel also runs keys of the
// narrower widths rounds sort in (bakeoffWidths, cells named w=W), on
// both sides of its packed crossover. `make bakeoff` prints the table
// EXPERIMENTS.md records; CI runs it at -benchtime 1x as a
// compile-and-run smoke.
func BenchmarkKernelBakeoff(b *testing.B) {
	type pair struct {
		k uint64
		o uint32
	}
	ctx := context.Background()
	kernels := []struct {
		name string
		maxN int // quadratic kernels stop here
		sort func(bank int, keys []uint64, oids []uint32, s *Scratch, pairs []pair)
	}{
		{"radix", 1 << 30, func(bank int, keys []uint64, oids []uint32, s *Scratch, _ []pair) {
			if err := RadixSort(ctx, bank, keys, oids, s); err != nil {
				b.Fatal(err)
			}
		}},
		{"insertion", 1 << 10, func(_ int, keys []uint64, oids []uint32, _ *Scratch, _ []pair) {
			InsertionSort(keys, oids)
		}},
		{"slicesSortFunc", 1 << 30, func(_ int, keys []uint64, oids []uint32, _ *Scratch, pairs []pair) {
			pairs = pairs[:len(keys)]
			for i, k := range keys {
				pairs[i] = pair{k, oids[i]}
			}
			slices.SortFunc(pairs, func(x, y pair) int { return cmp.Compare(x.k, y.k) })
			for i, p := range pairs {
				keys[i], oids[i] = p.k, p.o
			}
		}},
	}
	cell := func(name string, bank, width int, dup string, n int) {
		rows := max(n, bakeoffRows) / n * n
		src := bakeoffKeys(rows, bank, width, dup)
		keys := make([]uint64, rows)
		oids := make([]uint32, rows)
		pairs := make([]pair, n)
		var s Scratch
		for _, k := range kernels {
			if n > k.maxN || (width < bank && k.name != "radix") {
				continue
			}
			b.Run(name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					for j := range oids {
						oids[j] = uint32(j)
					}
					for lo := 0; lo < rows; lo += n {
						k.sort(bank, keys[lo:lo+n], oids[lo:lo+n], &s, pairs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
	}
	for _, bank := range Banks {
		for _, dup := range []string{"unique", "zipf", "allequal"} {
			for _, n := range []int{24, 32, 48, 64, 96, 128, 256, 1 << 10, 1 << 14, 1 << 16, 1 << 19} {
				cell(fmt.Sprintf("bank=%d/%s/n=%d", bank, dup, n), bank, bank, dup, n)
			}
		}
	}
	for _, bank := range Banks {
		for _, width := range bakeoffWidths[bank] {
			for _, dup := range []string{"unique", "zipf"} {
				for _, n := range []int{1 << 10, PackMinRows, 1 << 14, 1 << 16, 1 << 19} {
					cell(fmt.Sprintf("bank=%d/w=%d/%s/n=%d", bank, width, dup, n), bank, width, dup, n)
				}
			}
		}
	}
}

// BenchmarkParallelSort times the parallel sort under the production
// kernel — the parallel radix sort that mcsort's round 0 and its
// cooperative group sorts call — in ns/row over parallelBenchRows rows:
// workers {1, 2} × every bank × {unique, zipf} keys, full-bank and of
// the narrower bakeoffWidths (cells named w=W), and TopKContext,
// the radix select, at limits {100, n/8, n/2−1, n−1} × workers {1, 2}:
// its one-worker cells are the shape mcsperf's serve_topk_cold runs
// (limits 100 to 51,200), and n−1, beside the full sort, is the most
// rows a limit below n sorts after its count and compaction. The paper kernel's cell — its chunk sorts and chunk
// merge at two workers, the path the figure experiments time — is
// internal/mergesort/paper's BenchmarkParallelSort. One iteration
// refills the rows first, inside the clock. `make bakeoff` runs it at
// -cpu 2; CI runs it at -benchtime 1x as a compile-and-run smoke.
func BenchmarkParallelSort(b *testing.B) {
	ctx := context.Background()
	const n = parallelBenchRows
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	for _, bank := range Banks {
		for _, width := range append([]int{bank}, bakeoffWidths[bank]...) {
			for _, dup := range []string{"unique", "zipf"} {
				src := bakeoffKeys(n, bank, width, dup)
				prefix := fmt.Sprintf("bank=%d/%s", bank, dup)
				if width < bank {
					prefix = fmt.Sprintf("bank=%d/w=%d/%s", bank, width, dup)
				}
				cell := func(name string, sort func(w int) error, w int) {
					b.Run(fmt.Sprintf("%s/%s/workers=%d", prefix, name, w), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							copy(keys, src)
							for j := range oids {
								oids[j] = uint32(j)
							}
							if err := sort(w); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
					})
				}
				for _, w := range []int{1, 2} {
					cell("sort", func(w int) error { return ParallelSortWithParamsContext(ctx, bank, keys, oids, Params{}, w) }, w)
				}
				if width < bank {
					continue
				}
				for _, limit := range []int{100, n / 8, n/2 - 1, n - 1} {
					for _, w := range []int{1, 2} {
						cell(fmt.Sprintf("topk=%d", limit), func(w int) error {
							_, err := TopKContext(ctx, bank, keys, oids, limit, Params{}, w)
							return err
						}, w)
					}
				}
			}
		}
	}
}

// BenchmarkMergeRuns times MergeRunsContext in ns/row over
// parallelBenchRows words cut into k equal sorted runs: k ∈ {2, 3, 8} ×
// {unique, zipf} words × workers {1, 2}. k = 3 is the coordinator's
// gather over three shards. The runs are read only, so one iteration is
// the merge alone. `make bakeoff` runs it at -cpu 2; CI at -benchtime
// 1x.
func BenchmarkMergeRuns(b *testing.B) {
	ctx := context.Background()
	const n = parallelBenchRows
	for _, k := range []int{2, 3, 8} {
		for _, dup := range []string{"unique", "zipf"} {
			keys := bakeoffKeys(n, 64, 64, dup)
			runs := make([]int, k+1)
			for r := range runs {
				runs[r] = n * r / k
			}
			for r := 0; r < k; r++ {
				slices.Sort(keys[runs[r]:runs[r+1]])
			}
			runK := splitAt(keys, runs)
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("k=%d/%s/workers=%d", k, dup, w), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := MergeRunsContext(ctx, runK, 0, w); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				})
			}
		}
	}
}

// parallelBenchRows is the input of one BenchmarkParallelSort iteration.
const parallelBenchRows = 1 << 19

// bakeoffRows is the work of one bake-off iteration.
const bakeoffRows = 1 << 16

// bakeoffWidths are the key widths below the full bank that the
// bake-off and BenchmarkParallelSort also sort, per bank: the widths
// rounds run at (lib_ties 18 bits, a shard3_window_full shard 29) and
// the packed kernel's digit boundaries around them.
var bakeoffWidths = map[int][]int{16: {12}, 32: {18, 24, 29}}

// bakeoffKeys draws rows keys of width bits in the bank: uniform random
// ("unique": distinct with near certainty at 32 bits and more, every
// digit live), zipf-skewed like datagen's skewed tables, or all equal.
// The full-bank keys are seeded by the bank alone, as before the
// narrower widths were added.
func bakeoffKeys(rows, bank, width int, dup string) []uint64 {
	seed := int64(bank)
	if width < bank {
		seed = int64(bank<<8 | width)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.3, uint64(rows))
	keys := make([]uint64, rows)
	for i := range keys {
		switch dup {
		case "unique":
			keys[i] = rng.Uint64() & maskFor(width)
		case "zipf":
			keys[i] = zipf.Uint64() & maskFor(width)
		default:
			keys[i] = 42
		}
	}
	return keys
}
