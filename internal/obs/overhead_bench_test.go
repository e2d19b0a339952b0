// Overhead verification for the acceptance bar: instrumentation must be
// zero-cost-when-disabled on the sort hot path. Run with
//
//	go test -bench BenchmarkMergesortSort1M -count 5 ./internal/obs
//
// and compare the Disabled and Enabled series; Disabled must be within
// 2% of Enabled=never-was (the sites reduce to one atomic load each).
package obs_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/mergesort"
	"repro/internal/obs"
)

const benchN = 1 << 20 // 1M keys

func benchSort(b *testing.B, bank int) {
	rng := rand.New(rand.NewSource(7))
	mask := uint64(1)<<uint(bank) - 1
	if bank == 64 {
		mask = ^uint64(0)
	}
	keys := make([]uint64, benchN)
	oids := make([]uint32, benchN)
	work := make([]uint64, benchN)
	b.SetBytes(benchN * 12)
	for i := range keys {
		keys[i] = rng.Uint64() & mask
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, keys)
		for j := range oids {
			oids[j] = uint32(j)
		}
		b.StartTimer()
		if err := mergesort.SortScratchContext(context.Background(), bank, work, oids, mergesort.Params{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergesortSort1M_Disabled(b *testing.B) {
	obs.Disable()
	benchSort(b, 32)
}

func BenchmarkMergesortSort1M_Enabled(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	benchSort(b, 32)
}

// BenchmarkCounterAdd isolates the per-site cost: one atomic load when
// disabled, load+add when enabled.
func BenchmarkCounterAdd_Disabled(b *testing.B) {
	obs.Disable()
	c := obs.NewCounter("bench.counter.disabled")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterAdd_Enabled(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	c := obs.NewCounter("bench.counter.enabled")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
