// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - the register-model SIMD sort on its own;
//   - the paper's merge-sort kernel vs the default (radix) kernel under
//     the same massage plan, the paper's plugged in through the
//     mergesort.Params.Sort hook (the paper's Section 7 future work);
//   - serial vs goroutine-parallel code massaging;
//   - ByteSlice scans vs a naive column scan.
package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/plan"
)

func randKeys64(n, bits int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := column.Mask(bits)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & mask
	}
	return keys
}

// BenchmarkAblationRegisterSort32 is the register-model SIMD merge-sort.
func BenchmarkAblationRegisterSort32(b *testing.B) {
	const n = 1 << 16
	src := randKeys64(n, 32, 1)
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		for j := range oids {
			oids[j] = uint32(j)
		}
		if err := mergesort.SortScratchContext(context.Background(), 32, keys, oids, mergesort.Params{Sort: paper.Params{}.Sort}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

// BenchmarkAblationMCSMerge and ...MCSRadix run the same stitched
// two-column sort with the two kernels: the paper's, selected the way
// the figure experiments select it, and the default.
func benchMCSKernel(b *testing.B, paperKernel bool) {
	const n = 1 << 17
	inputs := []massage.Input{
		{Codes: randKeys64(n, 10, 2), Width: 10},
		{Codes: randKeys64(n, 17, 3), Width: 17},
	}
	p := plan.Plan{Rounds: []plan.Round{{Width: 27, Bank: 32}}}
	var sp mergesort.Params
	if paperKernel {
		sp.Sort = paper.Params{}.Sort
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcsort.ExecuteContext(context.Background(), inputs, p, mcsort.Options{SortParams: &sp}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtuples/s")
}

func BenchmarkAblationMCSMerge(b *testing.B) { benchMCSKernel(b, true) }
func BenchmarkAblationMCSRadix(b *testing.B) { benchMCSKernel(b, false) }

// BenchmarkAblationMassageSerial/Parallel measure the four-instruction
// program with and without row partitioning across goroutines.
func benchMassage(b *testing.B, workers int) {
	const n = 1 << 20
	inputs := []massage.Input{
		{Codes: randKeys64(n, 17, 4), Width: 17},
		{Codes: randKeys64(n, 33, 5), Width: 33},
	}
	prog, err := massage.Compile(inputs, []int{18, 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.RunParallelContext(context.Background(), inputs, n, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

func BenchmarkAblationMassageSerial(b *testing.B)    { benchMassage(b, 1) }
func BenchmarkAblationMassageParallel4(b *testing.B) { benchMassage(b, 4) }

// BenchmarkAblationByteSliceScan vs NaiveScan: the early-stopping
// byte-plane scan against a plain predicate loop over the codes.
func BenchmarkAblationByteSliceScan(b *testing.B) {
	const n = 1 << 20
	col := column.FromCodes("c", 17, randKeys64(n, 17, 6))
	bs := byteslice.FromColumn(col)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.Scan(byteslice.LT, 1<<13); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

func BenchmarkAblationNaiveScan(b *testing.B) {
	const n = 1 << 20
	codes := randKeys64(n, 17, 6)
	out := make([]uint64, (n+63)/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := range out {
			out[w] = 0
		}
		for r, v := range codes {
			if v < 1<<13 {
				out[r>>6] |= 1 << (uint(r) & 63)
			}
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}
