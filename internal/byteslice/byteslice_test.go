package byteslice

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/column"
)

func randColumn(rng *rand.Rand, n, width, distinct int) *column.Column {
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = uint64(rng.Intn(distinct)) & column.Mask(width)
	}
	return column.FromCodes("c", width, codes)
}

func naiveScan(c *column.Column, op Op, k uint64) []bool {
	out := make([]bool, len(c.Codes))
	for i, v := range c.Codes {
		switch op {
		case LT:
			out[i] = v < k
		case LE:
			out[i] = v <= k
		case GT:
			out[i] = v > k
		case GE:
			out[i] = v >= k
		case EQ:
			out[i] = v == k
		case NEQ:
			out[i] = v != k
		}
	}
	return out
}

func TestLookupRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 3, 8, 9, 12, 16, 17, 24, 29, 32, 33, 48, 57, 64} {
		n := 500
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() & column.Mask(width)
		}
		col := column.FromCodes("c", width, codes)
		bs := FromColumn(col)
		for i := 0; i < n; i++ {
			if got := bs.Lookup(i); got != codes[i] {
				t.Fatalf("width %d row %d: lookup %d, want %d", width, i, got, codes[i])
			}
		}
	}
}

func TestScanAllOpsAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := []Op{LT, LE, GT, GE, EQ, NEQ}
	for _, width := range []int{4, 7, 8, 12, 17, 23, 33} {
		col := randColumn(rng, 1000, width, 1<<uint(min(width, 10)))
		bs := FromColumn(col)
		for _, op := range ops {
			for trial := 0; trial < 5; trial++ {
				k := uint64(rng.Intn(1<<uint(min(width, 10)))) & column.Mask(width)
				bv, err := bs.Scan(op, k)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveScan(col, op, k)
				for i := range want {
					if bv.Get(i) != want[i] {
						t.Fatalf("width %d op %v k=%d row %d: got %v want %v",
							width, op, k, i, bv.Get(i), want[i])
					}
				}
			}
		}
	}
}

func TestScanBoundaryConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := randColumn(rng, 777, 12, 1<<12)
	bs := FromColumn(col)
	for _, k := range []uint64{0, 1, column.Mask(12) - 1, column.Mask(12)} {
		for _, op := range []Op{LT, LE, GT, GE, EQ, NEQ} {
			bv, err := bs.Scan(op, k)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveScan(col, op, k)
			for i := range want {
				if bv.Get(i) != want[i] {
					t.Fatalf("k=%d op %v row %d mismatch", k, op, i)
				}
			}
		}
	}
	if _, err := bs.Scan(EQ, column.Mask(12)+1); err == nil {
		t.Error("constant outside domain accepted")
	}
}

func TestScanBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	col := randColumn(rng, 2000, 16, 5000)
	bs := FromColumn(col)
	lo, hi := uint64(100), uint64(3000)
	bv, err := bs.ScanBetween(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range col.Codes {
		want := v >= lo && v <= hi
		if bv.Get(i) != want {
			t.Fatalf("row %d: got %v want %v", i, bv.Get(i), want)
		}
	}
}

func TestBitVectorRowsAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	col := randColumn(rng, 1003, 8, 256)
	bs := FromColumn(col)
	bv, err := bs.Scan(LT, 128)
	if err != nil {
		t.Fatal(err)
	}
	rows := bv.Rows()
	if len(rows) != bv.Count() {
		t.Fatalf("Rows len %d != Count %d", len(rows), bv.Count())
	}
	for _, r := range rows {
		if col.Codes[r] >= 128 {
			t.Fatalf("row %d does not satisfy predicate", r)
		}
	}
}

func TestNonMultipleOf8Rows(t *testing.T) {
	// Padding lanes must never leak into results.
	for n := 1; n <= 17; n++ {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(i)
		}
		col := column.FromCodes("c", 5, codes)
		bs := FromColumn(col)
		bv, err := bs.Scan(GE, 0) // matches every real row
		if err != nil {
			t.Fatal(err)
		}
		if bv.Count() != n {
			t.Fatalf("n=%d: count %d", n, bv.Count())
		}
	}
}

// gatherRowSets are the row sets Gather is checked and timed on over an
// n-row column: empty, identity, an ascending 96 % subset (a filter's
// selection) and random order with repeats (a permutation's reads).
func gatherRowSets(rng *rand.Rand, n int) map[string][]uint32 {
	ident := make([]uint32, n)
	var subset []uint32
	random := make([]uint32, n)
	for i := range ident {
		ident[i] = uint32(i)
		if rng.Intn(100) < 96 {
			subset = append(subset, uint32(i))
		}
		random[i] = uint32(rng.Intn(n))
	}
	return map[string][]uint32{"empty": {}, "identity": ident, "subset96": subset, "random": random}
}

// TestGatherMatchesLookup: Gather equals a per-row Lookup at every
// width (so every plane count and every left-align shift), on every
// row-set shape, at lengths around the gatherBlock boundary, and leaves
// dst beyond len(rows) untouched.
func TestGatherMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const sentinel = 0xdeadbeefcafef00d
	for width := 1; width <= 64; width++ {
		for _, n := range []int{1, 1023, 1024, 1025, 3000} {
			codes := make([]uint64, n)
			for i := range codes {
				codes[i] = rng.Uint64() & column.Mask(width)
			}
			bs := FromColumn(column.FromCodes("c", width, codes))
			for name, rows := range gatherRowSets(rng, n) {
				dst := make([]uint64, len(rows)+3)
				for j := range dst {
					dst[j] = sentinel
				}
				bs.Gather(dst, rows)
				for j, row := range rows {
					if want := bs.Lookup(int(row)); dst[j] != want {
						t.Fatalf("width %d n %d %s: dst[%d] = %d, Lookup(%d) = %d", width, n, name, j, dst[j], row, want)
					}
				}
				for j := len(rows); j < len(dst); j++ {
					if dst[j] != sentinel {
						t.Fatalf("width %d n %d %s: dst[%d] beyond the rows overwritten", width, n, name, j)
					}
				}
			}
		}
	}
}

// BenchmarkGather: ns/row of a per-row Lookup loop against Gather over
// 2^19 rows, at widths of one, three and four planes, on identity rows
// and on an ascending 96 % subset.
func BenchmarkGather(b *testing.B) {
	const n = 1 << 19
	rng := rand.New(rand.NewSource(7))
	sets := gatherRowSets(rng, n)
	for _, width := range []int{6, 21, 32} {
		bs := FromColumn(randColumn(rng, n, width, 1<<uint(width)))
		for _, set := range []string{"identity", "subset96"} {
			rows := sets[set]
			dst := make([]uint64, len(rows))
			report := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
			}
			b.Run(fmt.Sprintf("w%d/%s/lookup", width, set), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					for j, row := range rows {
						dst[j] = bs.Lookup(int(row))
					}
				}
				report(b)
			})
			b.Run(fmt.Sprintf("w%d/%s/gather", width, set), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					bs.Gather(dst, rows)
				}
				report(b)
			})
		}
	}
}
