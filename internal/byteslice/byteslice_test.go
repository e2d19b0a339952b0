package byteslice

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		out[i] = matches(op, v, k)
	}
	return out
}

// matches evaluates v op k.
func matches(op Op, v, k uint64) bool {
	switch op {
	case LT:
		return v < k
	case LE:
		return v <= k
	case GT:
		return v > k
	case GE:
		return v >= k
	case EQ:
		return v == k
	default:
		return v != k
	}
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

// selectionPatterns are the code columns the selection tests scan: one
// value everywhere (every op's word is all ones or all zeros), values
// alternating row by row (alternating words), whole 64-row words
// alternating (all-ones words between all-zeros ones) and random codes.
func selectionPatterns(rng *rand.Rand, n int) map[string][]uint64 {
	pats := map[string][]uint64{}
	for _, name := range []string{"const", "alternating", "words", "random"} {
		codes := make([]uint64, n)
		for i := range codes {
			switch name {
			case "const":
				codes[i] = 3
			case "alternating":
				codes[i] = 3 + uint64(i&1)
			case "words":
				codes[i] = 3 + uint64(i>>6&1)
			default:
				codes[i] = uint64(rng.Intn(8))
			}
		}
		pats[name] = codes
	}
	return pats
}

// checkSelection compares bv with want, row by row through Get, bit
// by bit past N (no padding lane may leak), and through Count and Rows,
// which must list exactly the wanted rows in ascending order.
func checkSelection(t *testing.T, tag string, bv *BitVector, want []bool) {
	t.Helper()
	var rows []uint32
	for i, w := range want {
		if bv.Get(i) != w {
			t.Fatalf("%s: row %d got %v, want %v", tag, i, bv.Get(i), w)
		}
		if w {
			rows = append(rows, uint32(i))
		}
	}
	if len(bv.Words) != (len(want)+63)/64 {
		t.Fatalf("%s: %d words for %d rows", tag, len(bv.Words), len(want))
	}
	if tail := len(want) & 63; tail != 0 && bv.Words[len(bv.Words)-1]>>uint(tail) != 0 {
		t.Fatalf("%s: bits set past row %d", tag, len(want))
	}
	if got := bv.Count(); got != len(rows) {
		t.Fatalf("%s: Count %d, want %d", tag, got, len(rows))
	}
	if got := bv.Rows(); len(got) != len(rows) || (len(rows) > 0 && !slices.Equal(got, rows)) {
		t.Fatalf("%s: Rows %v, want %v", tag, got, rows)
	}
}

// TestBitVectorRowsAndCount: every Op at constants below, at and above
// the codes, and ScanBetween over several windows, on row counts around
// the byte and word edges, select exactly the rows whose Lookup passes
// the predicate — through Get, Count and Rows alike.
func TestBitVectorRowsAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 1001} {
		for name, codes := range selectionPatterns(rng, n) {
			for _, width := range []int{5, 12} {
				bs := FromColumn(column.FromCodes("c", width, codes))
				want := make([]bool, n)
				for _, op := range []Op{LT, LE, GT, GE, EQ, NEQ} {
					for _, k := range []uint64{0, 2, 3, 4, 5, 7, column.Mask(width)} {
						bv, err := bs.Scan(op, k)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							want[i] = matches(op, bs.Lookup(i), k)
						}
						checkSelection(t, fmt.Sprintf("n=%d %s w=%d code %v %d", n, name, width, op, k), bv, want)
					}
				}
				for _, win := range [][2]uint64{{0, 2}, {3, 3}, {3, 4}, {4, 7}, {0, column.Mask(width)}} {
					bv, err := bs.ScanBetween(win[0], win[1])
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						v := bs.Lookup(i)
						want[i] = v >= win[0] && v <= win[1]
					}
					checkSelection(t, fmt.Sprintf("n=%d %s w=%d between %v", n, name, width, win), bv, want)
				}
			}
		}
	}
}

// TestNonMultipleOf8Rows: padding lanes never leak into results, on
// every row count up to 17 and around the word edges, whether the
// predicate matches every real row or none.
func TestNonMultipleOf8Rows(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 1001} {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(i % 32)
		}
		bs := FromColumn(column.FromCodes("c", 5, codes))
		all, none := make([]bool, n), make([]bool, n)
		for i := range all {
			all[i] = true
		}
		for _, tc := range []struct {
			op   Op
			k    uint64
			want []bool
		}{{GE, 0, all}, {LE, 31, all}, {NEQ, 31, nil}, {LT, 0, none}, {GT, 31, none}} {
			bv, err := bs.Scan(tc.op, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == nil {
				want = naiveScan(column.FromCodes("c", 5, codes), tc.op, tc.k)
			}
			checkSelection(t, fmt.Sprintf("n=%d %v %d", n, tc.op, tc.k), bv, want)
		}
	}
}

// TestEncodeLayout: New plus Encode, over ranges encoded in any order
// and encoded again over earlier codes, lays out every plane byte as the
// layout defines it — code << shift, most significant byte first, the
// padding zero — and equals FromColumn, at every width 1..64 and on row
// counts that are not multiples of 8 or of the encode block.
func TestEncodeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for width := 1; width <= 64; width++ {
		for _, n := range []int{0, 1, 7, 8, 9, 100, 1001, 2*gatherBlock + 3} {
			codes := make([]uint64, n)
			flipped := make([]uint64, n)
			for i := range codes {
				codes[i] = rng.Uint64() & column.Mask(width)
				flipped[i] = ^codes[i] & column.Mask(width)
			}
			bs := New(width, n)
			for _, src := range [][]uint64{flipped, codes} {
				// Cut [0, n) at random rows and encode the pieces in any order.
				cuts := []int{0, n}
				for k := 0; k < 4; k++ {
					cuts = append(cuts, rng.Intn(n+1))
				}
				slices.Sort(cuts)
				for _, k := range rng.Perm(len(cuts) - 1) {
					lo, hi := cuts[k], cuts[k+1]
					bs.Encode(src[lo:hi], lo)
				}
			}
			nPlanes := (width + 7) / 8
			if len(bs.planes) != nPlanes || bs.shift != uint(8*nPlanes-width) || bs.Width != width || bs.N != n {
				t.Fatalf("width %d n %d: %d planes, shift %d", width, n, len(bs.planes), bs.shift)
			}
			for p, plane := range bs.planes {
				if len(plane) != (n+7)&^7 {
					t.Fatalf("width %d n %d: plane %d holds %d bytes", width, n, p, len(plane))
				}
				for i, b := range plane {
					want := byte(0)
					if i < n {
						want = byte(codes[i] << bs.shift >> (8 * (nPlanes - 1 - p)))
					}
					if b != want {
						t.Fatalf("width %d n %d: plane %d row %d = %#x, want %#x", width, n, p, i, b, want)
					}
				}
			}
			if want := FromColumn(column.FromCodes("c", width, codes)); !reflect.DeepEqual(bs, want) {
				t.Fatalf("width %d n %d: New+Encode differs from FromColumn", width, n)
			}
		}
	}
}

// TestSliceMatchesFromColumn: Slice(lo, hi) is FromColumn over the
// codes of rows [lo, hi) — planes and zero padding byte for byte, and
// the same Scan and Gather answers — at every plane count, on unaligned
// and empty ranges.
func TestSliceMatchesFromColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 1000
	for _, width := range []int{1, 7, 8, 9, 21, 33, 64} {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() & column.Mask(width)
		}
		bs := FromColumn(column.FromCodes("c", width, codes))
		ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {5, 5}, {3, 4}, {8, 16}}
		for len(ranges) < 16 {
			lo := rng.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(n+1-lo)})
		}
		for _, r := range ranges {
			got := bs.Slice(r[0], r[1])
			want := FromColumn(column.FromCodes("c", width, codes[r[0]:r[1]]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d rows %v: Slice differs from FromColumn", width, r)
			}
			rows := make([]uint32, got.N)
			for i := range rows {
				rows[i] = uint32(i)
			}
			g, w := make([]uint64, got.N), make([]uint64, got.N)
			got.Gather(g, rows)
			want.Gather(w, rows)
			if !slices.Equal(g, w) || !slices.Equal(g, codes[r[0]:r[1]]) {
				t.Fatalf("width %d rows %v: Gather differs", width, r)
			}
			for _, op := range []Op{LT, LE, GT, GE, EQ, NEQ} {
				k := codes[rng.Intn(n)]
				gb, err := got.Scan(op, k)
				if err != nil {
					t.Fatal(err)
				}
				wb, _ := want.Scan(op, k)
				if !reflect.DeepEqual(gb, wb) {
					t.Fatalf("width %d rows %v: Scan %v %d differs", width, r, op, k)
				}
			}
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

// TestDecodeMatchesLookup: the range read equals a per-row Lookup at
// every width (every plane count and left-align shift), with the column
// length and the range's first row on and beside the 8-row plane padding
// and the gatherBlock edge, to the column's end or short of it, and
// leaves dst beyond the range untouched.
func TestDecodeMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const sentinel = 0xdeadbeefcafef00d
	edges := []int{0, 1, 7, 8, 9, 1023, 1024, 1025, 2047, 2048, 2049}
	for width := 1; width <= 64; width++ {
		for _, n := range edges[1:] {
			codes := make([]uint64, n)
			for i := range codes {
				codes[i] = rng.Uint64() & column.Mask(width)
			}
			bs := FromColumn(column.FromCodes("c", width, codes))
			for _, lo := range edges {
				if lo > n {
					break
				}
				for _, k := range []int{n - lo, (n - lo) / 2} {
					dst := make([]uint64, k+3)
					for j := range dst {
						dst[j] = sentinel
					}
					bs.Decode(dst[:k], lo)
					for j := 0; j < k; j++ {
						if want := bs.Lookup(lo + j); dst[j] != want {
							t.Fatalf("width %d n %d lo %d len %d: dst[%d] = %d, Lookup(%d) = %d", width, n, lo, k, j, dst[j], lo+j, want)
						}
					}
					for j := k; j < len(dst); j++ {
						if dst[j] != sentinel {
							t.Fatalf("width %d n %d lo %d len %d: dst[%d] beyond the range overwritten", width, n, lo, k, j)
						}
					}
				}
			}
		}
	}
}

// orBitsRef is OrBits by Lookup: bits [lo, hi) of the code at each
// row, complemented when desc, ORed into dst at left shift shift.
func orBitsRef(bs *BS, dst []uint64, rows []uint32, from, lo, hi int, shift uint, desc bool) {
	mask := column.Mask(hi - lo)
	for j := range dst {
		row := from + j
		if rows != nil {
			row = int(rows[j])
		}
		v := bs.Lookup(row) >> uint(bs.Width-hi) & mask
		if desc {
			v ^= mask
		}
		dst[j] |= v << shift
	}
}

// checkOrBits runs OrBits and orBitsRef over the same random keys and
// fails on the first difference.
func checkOrBits(t *testing.T, rng *rand.Rand, bs *BS, rows []uint32, from, n, lo, hi int, desc bool) {
	t.Helper()
	shift := uint(rng.Intn(64 - (hi - lo) + 1))
	got := make([]uint64, n)
	for j := range got {
		got[j] = rng.Uint64()
	}
	want := slices.Clone(got)
	b := NewBits(lo, hi, shift, desc)
	bs.OrBits(got, rows, from, &b)
	orBitsRef(bs, want, rows, from, lo, hi, shift, desc)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("width %d bits [%d,%d) shift %d desc %v from %d rows %v (n %d): dst[%d] = %#x, want %#x",
				bs.Width, lo, hi, shift, desc, from, rows != nil, n, j, got[j], want[j])
		}
	}
}

// orBitsRows is a row list of k rows of an n-row column in one of the
// shapes OrBits is checked on: an ascending subset (a filter's
// selection), arbitrary order (a permutation's reads through a
// selection), or a few rows repeated (ties).
func orBitsRows(rng *rand.Rand, n, k, shape int) []uint32 {
	rows := make([]uint32, 0, k)
	switch shape % 3 {
	case 0:
		for i := rng.Intn(8); i < n && len(rows) < k; i += 1 + rng.Intn(3) {
			rows = append(rows, uint32(i))
		}
	case 1:
		for len(rows) < k {
			rows = append(rows, uint32(rng.Intn(n)))
		}
	default:
		for len(rows) < k {
			rows = append(rows, uint32(rng.Intn(min(n, 5))))
		}
	}
	return rows
}

// TestOrBitsMatchesLookup is the plane kernel's differential against a
// Lookup reference: every bit range [lo, hi) of every width 1–64 (one to
// eight planes, every run split), ASC and DESC, over contiguous rows at
// offsets that are not multiples of 8 — up to the last padded row — and
// over row lists in ascending, arbitrary and repeating order; then, for
// a sample of ranges per width, at lengths 1, 1,023, 1,024 and 1,025.
func TestOrBitsMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 2 * gatherBlock
	for width := 1; width <= 64; width++ {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() & column.Mask(width)
		}
		bs := FromColumn(column.FromCodes("c", width, codes[:n-3])) // 3 padded rows
		padded := (bs.N + 7) &^ 7
		for lo := 0; lo < width; lo++ {
			for hi := lo + 1; hi <= width; hi++ {
				// The row shapes take turns across the ranges.
				for _, desc := range []bool{false, true} {
					from := 3 + 8*rng.Intn(8)
					if (lo+hi)%2 == 0 {
						from = padded - 11
					}
					checkOrBits(t, rng, bs, nil, from, 11, lo, hi, desc)
					rows := orBitsRows(rng, bs.N, 9, lo+hi)
					checkOrBits(t, rng, bs, rows, 0, len(rows), lo, hi, desc)
				}
			}
		}
		for k := 0; k < 6; k++ {
			lo := rng.Intn(width)
			hi := lo + 1 + rng.Intn(width-lo)
			if k == 0 {
				lo, hi = 0, width
			}
			desc := k%2 == 1
			for _, length := range []int{1, gatherBlock - 1, gatherBlock, gatherBlock + 1} {
				from := rng.Intn(padded-length+1) | 1
				if from+length > padded {
					from -= 2
				}
				checkOrBits(t, rng, bs, nil, from, length, lo, hi, desc)
				checkOrBits(t, rng, bs, nil, padded-length, length, lo, hi, desc)
				for shape := 0; shape < 3; shape++ {
					rows := orBitsRows(rng, bs.N, length, shape)
					checkOrBits(t, rng, bs, rows, 0, len(rows), lo, hi, desc)
				}
			}
		}
	}
}

// FuzzOrBits is TestOrBitsMatchesLookup's property on fuzzed columns,
// bit ranges, shifts and rows: OrBits equals the Lookup reference.
func FuzzOrBits(f *testing.F) {
	f.Add([]byte("byte planes"), uint8(21), uint8(3), uint8(17), uint8(9), false, uint16(5), uint16(0))
	f.Add([]byte{0xff, 0, 0x80, 1, 0x7f, 0xaa, 0x55, 3, 9, 200}, uint8(64), uint8(0), uint8(64), uint8(0), true, uint16(1), uint16(0x3a5))
	f.Add([]byte{1, 2, 3}, uint8(40), uint8(1), uint8(39), uint8(20), true, uint16(0), uint16(0x8001))
	f.Fuzz(func(t *testing.T, data []byte, width, lo, hi, shift uint8, desc bool, from, rowSeed uint16) {
		w := int(width)%64 + 1
		l := int(lo) % w
		h := l + 1 + int(hi)%(w-l)
		s := uint(shift) % uint(64-(h-l)+1)
		n := min(len(data), 2*gatherBlock+9)
		codes := make([]uint64, n)
		for i := range codes {
			// Spread each byte across the code so every plane varies.
			b := uint64(data[i])
			codes[i] = (b*0x0101_0101_0101_0101 ^ uint64(i)*0x9e37_79b9_7f4a_7c15) & column.Mask(w)
		}
		bs := FromColumn(column.FromCodes("c", w, codes))
		padded := (n + 7) &^ 7
		var rows []uint32
		first := 0
		length := 0
		if rowSeed&0x8000 == 0 || n == 0 {
			first = int(from) % (padded + 1)
			length = padded - first
			if rowSeed != 0 {
				length = min(length, int(rowSeed))
			}
		} else {
			rng := rand.New(rand.NewSource(int64(rowSeed)))
			rows = make([]uint32, int(from)%(2*gatherBlock+2))
			for j := range rows {
				rows[j] = uint32(rng.Intn(n))
			}
			length = len(rows)
		}
		got := make([]uint64, length)
		for j := range got {
			got[j] = uint64(j) * 0x2545_f491_4f6c_dd1d
		}
		want := slices.Clone(got)
		b := NewBits(l, h, s, desc)
		bs.OrBits(got, rows, first, &b)
		orBitsRef(bs, want, rows, first, l, h, s, desc)
		if !slices.Equal(got, want) {
			t.Fatalf("width %d bits [%d,%d) shift %d desc %v from %d rows %v: OrBits differs from Lookup", w, l, h, s, desc, first, rows != nil)
		}
	})
}

// BenchmarkGather: ns/row of a per-row Lookup loop against Gather over
// 2^19 rows, at widths of one, three, four and six planes, on identity
// rows and on an ascending 96 % subset; and of the range read, Decode,
// over the same 2^19 rows in 1,024-row blocks, as a pass over an
// unfiltered selection reads them.
func BenchmarkGather(b *testing.B) {
	const n = 1 << 19
	rng := rand.New(rand.NewSource(7))
	sets := gatherRowSets(rng, n)
	for _, width := range []int{6, 21, 32, 48} {
		bs := FromColumn(randColumn(rng, n, width, 1<<uint(width)))
		dst := make([]uint64, n)
		report := func(b *testing.B, rows int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		}
		for _, set := range []string{"identity", "subset96"} {
			rows := sets[set]
			b.Run(fmt.Sprintf("w%d/%s/lookup", width, set), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					for j, row := range rows {
						dst[j] = bs.Lookup(int(row))
					}
				}
				report(b, len(rows))
			})
			b.Run(fmt.Sprintf("w%d/%s/gather", width, set), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					bs.Gather(dst, rows)
				}
				report(b, len(rows))
			})
		}
		b.Run(fmt.Sprintf("w%d/range/decode", width), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for lo := 0; lo < n; lo += gatherBlock {
					bs.Decode(dst[lo:lo+gatherBlock], lo)
				}
			}
			report(b, n)
		})
	}
}

// TestFilterWordsAnyCut: a compiled filter evaluated into the words of
// a bit vector over any cut of them, every op and a range, gives Scan's
// and ScanBetween's bit vector bit for bit, and CountWords and FillRows
// over the same cut concatenate to Rows — for row counts that are not
// multiples of 8 or of 64.
func TestFilterWordsAnyCut(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{1, 7, 63, 64, 65, 1003, 4099} {
		for _, width := range []int{5, 12, 40} {
			bs := FromColumn(randColumn(rng, n, width, 1<<min(width, 10)))
			k := uint64(rng.Intn(1 << min(width, 10)))
			type filter struct {
				name string
				f    *Filter
				want *BitVector
			}
			var filters []filter
			for _, op := range []Op{LT, LE, GT, GE, EQ, NEQ} {
				f, err := bs.Filter(op, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := bs.Scan(op, k)
				if err != nil {
					t.Fatal(err)
				}
				filters = append(filters, filter{op.String(), f, want})
			}
			f, err := bs.FilterBetween(k/2, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bs.ScanBetween(k/2, k)
			if err != nil {
				t.Fatal(err)
			}
			filters = append(filters, filter{"between", f, want})
			for _, fl := range filters {
				words := len(fl.want.Words)
				cut := []int{0}
				for lo := 0; lo < words; {
					lo = min(words, lo+1+rng.Intn(3))
					cut = append(cut, lo)
				}
				got := NewBitVector(n)
				var rows []uint32
				for i := 0; i+1 < len(cut); i++ {
					fl.f.Words(got, cut[i], cut[i+1])
					part := make([]uint32, fl.want.CountWords(cut[i], cut[i+1]))
					fl.want.FillRows(part, cut[i], cut[i+1])
					rows = append(rows, part...)
				}
				tag := fmt.Sprintf("n=%d width=%d %s %d", n, width, fl.name, k)
				if !slices.Equal(got.Words, fl.want.Words) || got.N != fl.want.N {
					t.Fatalf("%s: words over the cut %v differ from the whole scan's", tag, cut)
				}
				if wantRows := fl.want.Rows(); !slices.Equal(rows, wantRows) || len(rows) != fl.want.Count() {
					t.Fatalf("%s: %d rows over the cut %v, want %d", tag, len(rows), cut, len(wantRows))
				}
			}
		}
	}
}
