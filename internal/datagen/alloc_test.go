package datagen

import (
	"runtime"
	"testing"
)

// allocRows is mcsperf's table size: TPC-H lineitem grain, 2^19 rows.
const allocRows = 1 << 19

// maxAllocPerPlaneByte bounds what generating a table may allocate per
// byte of its ByteSlice planes. Encoding straight into the planes
// allocates about 2.05 bytes per plane byte at allocRows (the planes,
// the key permutations, the 32-bit dimension attributes and references,
// and the pooled statistics sample buffer); building every column as a
// code array first allocated about 9.5, and a fresh sample buffer per
// column about 3.05: the bound sits between, so either coming back
// fails the test.
const maxAllocPerPlaneByte = 2.5

// TestTPCHAllocation: datagen.TPCH allocates a bounded multiple of the
// table it builds, so no per-row code array creeps back in. Not
// parallel: it reads the process's allocation counter.
func TestTPCHAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl, err := TPCH(TPCHConfig{SF: 1, Rows: allocRows, Seed: 7})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(alloc) / float64(tbl.Bytes()); ratio > maxAllocPerPlaneByte {
		t.Errorf("TPCH allocated %d B for %d plane bytes (%.2f×), want at most %.1f×", alloc, tbl.Bytes(), ratio, maxAllocPerPlaneByte)
	}
}

// BenchmarkTPCH times generating mcsperf's uniform TPC-H table.
func BenchmarkTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TPCH(TPCHConfig{SF: 1, Rows: allocRows, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}
