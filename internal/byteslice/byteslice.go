// Package byteslice implements the ByteSlice storage layout (Feng et
// al., reference [14] of the paper): a w-bit code column is chopped into
// ⌈w/8⌉ byte planes, most significant byte first (codes are left-aligned
// by padding the last plane's low bits with zeros). Scans evaluate a
// predicate one plane at a time over eight codes per word, stopping
// early for the rows whose outcome is already decided; lookups stitch a
// code's bytes back together. These are the paper's fast-scan and
// fast-lookup substrate (Figure 1's non-sorting time).
package byteslice

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/column"
)

// BS is a ByteSlice-encoded column.
type BS struct {
	Width  int // code width in bits
	N      int
	planes [][]byte // ⌈Width/8⌉ planes, most significant first, padded to 8
	shift  uint     // left-align shift: planes store code << shift
}

// New returns an n-row ByteSlice of the given width (1..64) whose
// codes are all 0; Set fills it in.
func New(width, n int) *BS {
	nPlanes := (width + 7) / 8
	bs := &BS{
		Width:  width,
		N:      n,
		planes: make([][]byte, nPlanes),
		shift:  uint(nPlanes*8 - width),
	}
	padded := (n + 7) &^ 7
	for p := range bs.planes {
		bs.planes[p] = make([]byte, padded)
	}
	return bs
}

// Set stores code, which must fit bs.Width bits, at row i.
func (bs *BS) Set(i int, code uint64) {
	v := code << bs.shift
	for p := len(bs.planes) - 1; p >= 0; p-- {
		bs.planes[p][i] = byte(v)
		v >>= 8
	}
}

// FromColumn converts an encoded column to the ByteSlice layout.
func FromColumn(c *column.Column) *BS {
	bs := New(c.Width, len(c.Codes))
	for i, code := range c.Codes {
		bs.Set(i, code)
	}
	return bs
}

// Slice returns rows [lo, hi) of bs as a ByteSlice of the same width
// with planes of its own, zero-padded like New's.
func (bs *BS) Slice(lo, hi int) *BS {
	s := &BS{Width: bs.Width, N: hi - lo, planes: make([][]byte, len(bs.planes)), shift: bs.shift}
	for p, plane := range bs.planes {
		s.planes[p] = make([]byte, (s.N+7)&^7)
		copy(s.planes[p], plane[lo:hi])
	}
	return s
}

// Bytes returns the size of bs's planes, padding included.
func (bs *BS) Bytes() int { return len(bs.planes) * ((bs.N + 7) &^ 7) }

// Lookup reconstructs the code at row i by stitching its bytes. It is
// the single-row reference Gather is tested against.
func (bs *BS) Lookup(i int) uint64 {
	var v uint64
	for p := range bs.planes {
		v = v<<8 | uint64(bs.planes[p][i])
	}
	return v >> bs.shift
}

// gatherBlock is the number of rows Gather and Decode decode before
// moving on: a block's row ids (4 KiB) and codes (8 KiB) stay in L1
// across all of its passes, so only the plane bytes come from memory.
const gatherBlock = 1024

// Decode sets dst[j] to the code at row lo+j for every j: the range
// read of rows [lo, lo+len(dst)). It runs Gather's passes block by
// block, each over the block's window of its planes: sequential reads.
func (bs *BS) Decode(dst []uint64, lo int) {
	var ps [8][]byte
	for b := 0; b < len(dst); b += gatherBlock {
		d := dst[b:min(b+gatherBlock, len(dst))]
		for p, plane := range bs.planes {
			ps[p] = plane[lo+b : lo+b+len(d)]
		}
		decodePlanes(d, ps[:len(bs.planes)], bs.shift)
	}
}

// Gather sets dst[j] to the code at row rows[j] for every j. It decodes
// blocks of gatherBlock rows plane-major, in passes of up to four
// planes with their slice headers hoisted: codes of up to 32 bits take
// one pass that assigns and undoes the left-align shift; wider ones
// first assign their leading planes, then shift the last four in.
// len(dst) must be at least len(rows); dst beyond len(rows) is left
// untouched.
func (bs *BS) Gather(dst []uint64, rows []uint32) {
	for lo := 0; lo < len(rows); lo += gatherBlock {
		r := rows[lo:min(lo+gatherBlock, len(rows))]
		assignPlanes(dst[lo:lo+len(r)], r, bs.planes, bs.shift)
	}
}

// assignPlanes sets d[j] to the bytes of the planes ps at row r[j],
// shifted right by shift: one pass of up to four planes, or, for five
// to eight, a pass of the leading ones and one shifting the last four
// in.
func assignPlanes(d []uint64, r []uint32, ps [][]byte, shift uint) {
	d = d[:len(r)]
	switch len(ps) {
	case 1:
		p0 := ps[0]
		for j, row := range r {
			d[j] = uint64(p0[row]) >> shift
		}
	case 2:
		p0, p1 := ps[0], ps[1]
		for j, row := range r {
			d[j] = (uint64(p0[row])<<8 | uint64(p1[row])) >> shift
		}
	case 3:
		p0, p1, p2 := ps[0], ps[1], ps[2]
		for j, row := range r {
			d[j] = (uint64(p0[row])<<16 | uint64(p1[row])<<8 | uint64(p2[row])) >> shift
		}
	case 4:
		p0, p1, p2, p3 := ps[0], ps[1], ps[2], ps[3]
		for j, row := range r {
			d[j] = (uint64(p0[row])<<24 | uint64(p1[row])<<16 | uint64(p2[row])<<8 | uint64(p3[row])) >> shift
		}
	default:
		k := len(ps) - 4
		assignPlanes(d, r, ps[:k], 0)
		p0, p1, p2, p3 := ps[k], ps[k+1], ps[k+2], ps[k+3]
		for j, row := range r {
			d[j] = (d[j]<<32 | uint64(p0[row])<<24 | uint64(p1[row])<<16 | uint64(p2[row])<<8 | uint64(p3[row])) >> shift
		}
	}
}

// decodePlanes is assignPlanes at rows 0..len(d)-1 of planes that each
// hold one block: the same passes, over sequential bytes.
func decodePlanes(d []uint64, ps [][]byte, shift uint) {
	switch len(ps) {
	case 1:
		p0 := ps[0][:len(d)]
		for j := range d {
			d[j] = uint64(p0[j]) >> shift
		}
	case 2:
		p0, p1 := ps[0][:len(d)], ps[1][:len(d)]
		for j := range d {
			d[j] = (uint64(p0[j])<<8 | uint64(p1[j])) >> shift
		}
	case 3:
		p0, p1, p2 := ps[0][:len(d)], ps[1][:len(d)], ps[2][:len(d)]
		for j := range d {
			d[j] = (uint64(p0[j])<<16 | uint64(p1[j])<<8 | uint64(p2[j])) >> shift
		}
	case 4:
		p0, p1, p2, p3 := ps[0][:len(d)], ps[1][:len(d)], ps[2][:len(d)], ps[3][:len(d)]
		for j := range d {
			d[j] = (uint64(p0[j])<<24 | uint64(p1[j])<<16 | uint64(p2[j])<<8 | uint64(p3[j])) >> shift
		}
	default:
		k := len(ps) - 4
		decodePlanes(d, ps[:k], 0)
		p0, p1, p2, p3 := ps[k][:len(d)], ps[k+1][:len(d)], ps[k+2][:len(d)], ps[k+3][:len(d)]
		for j := range d {
			d[j] = (d[j]<<32 | uint64(p0[j])<<24 | uint64(p1[j])<<16 | uint64(p2[j])<<8 | uint64(p3[j])) >> shift
		}
	}
}

// Op is a comparison predicate operator.
type Op int

const (
	LT Op = iota
	LE
	GT
	GE
	EQ
	NEQ
)

func (o Op) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "<>"
	}
}

// BitVector is a result bit vector: bit i set means row i satisfies the
// predicate.
type BitVector struct {
	Words []uint64
	N     int
}

// Get reports whether row i is set.
func (bv *BitVector) Get(i int) bool {
	return bv.Words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set rows.
func (bv *BitVector) Count() int {
	c := 0
	for _, w := range bv.Words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Rows converts the bit vector to a list of row numbers (the record
// numbers passed to lookups), a word at a time: an all-ones word is a
// run of 64 rows, any other word yields its set bits lowest first.
func (bv *BitVector) Rows() []uint32 {
	out := make([]uint32, 0, bv.Count())
	for wi, w := range bv.Words {
		base := uint32(wi) << 6
		if w == ^uint64(0) {
			for b := uint32(0); b < 64; b++ {
				out = append(out, base+b)
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			out = append(out, base+uint32(bits.TrailingZeros64(w)))
		}
	}
	return out
}

// And intersects two bit vectors in place (bv &= other).
func (bv *BitVector) And(other *BitVector) {
	for i := range bv.Words {
		bv.Words[i] &= other.Words[i]
	}
}

// ErrConstantDomain is the error of a scan whose constant is not a code
// of the column's domain: the caller's mistake, not a pipeline fault.
var ErrConstantDomain = errors.New("byteslice: constant outside the column's domain")

// Scan evaluates `code op constant` over the whole column and returns
// the result bit vector. The constant is a code in the column's domain.
// Eight codes are processed per word per plane; planes below the first
// deciding byte are skipped for words whose rows are all decided —
// ByteSlice's early stopping.
func (bs *BS) Scan(op Op, constant uint64) (*BitVector, error) {
	if constant&^column.Mask(bs.Width) != 0 {
		return nil, fmt.Errorf("%w: %d exceeds %d bits", ErrConstantDomain, constant, bs.Width)
	}
	nPlanes := len(bs.planes)
	cShift := constant << bs.shift
	constBytes := make([]uint64, nPlanes) // broadcast constant per plane
	for p := 0; p < nPlanes; p++ {
		constBytes[p] = uint64(byte(cShift>>uint(8*(nPlanes-1-p)))) * 0x0101_0101_0101_0101
	}

	bv := &BitVector{Words: make([]uint64, (bs.N+63)/64), N: bs.N}
	padded := (bs.N + 7) &^ 7
	for base := 0; base < padded; base += 8 {
		var lt, gt uint64 // per-lane byte masks, sticky across planes
		eq := ^uint64(0)  // lanes still undecided (equal so far)
		for p := 0; p < nPlanes; p++ {
			w := binary.LittleEndian.Uint64(bs.planes[p][base:]) // lane i is row base+i
			geM := ge8(w, constBytes[p])
			eqM := geM & ge8(constBytes[p], w)
			lt |= eq & ^geM
			gt |= eq & (geM &^ eqM)
			eq &= eqM
			if eq == 0 {
				break // early stop: every lane decided
			}
		}
		var res uint64
		switch op {
		case LT:
			res = lt
		case LE:
			res = lt | eq
		case GT:
			res = gt
		case GE:
			res = gt | eq
		case EQ:
			res = eq
		case NEQ:
			res = lt | gt
		}
		// Compact the per-lane byte masks into result bits: the lane
		// flags, one per byte's low bit, times 0x0102040810204080 land
		// lane i's flag on bit 56+i with no carries between them.
		lanes := ((res & 0x8080808080808080) >> 7) * 0x0102040810204080 >> 56
		if tail := bs.N - base; tail < 8 {
			lanes &= 1<<uint(tail) - 1
		}
		bv.Words[base>>6] |= lanes << (uint(base) & 63)
	}
	return bv, nil
}

// ScanBetween evaluates lo <= code <= hi with two plane walks.
func (bs *BS) ScanBetween(lo, hi uint64) (*BitVector, error) {
	a, err := bs.Scan(GE, lo)
	if err != nil {
		return nil, err
	}
	b, err := bs.Scan(LE, hi)
	if err != nil {
		return nil, err
	}
	a.And(b)
	return a, nil
}

// ge8 is a lane mask over eight byte lanes: 0xFF in lane i when byte i
// of x is at least byte i of y (unsigned), else 0. It is SWAR: a
// lane-wise subtraction whose borrow-out marks x < y (Hacker's Delight
// §2-18), eight codes' bytes compared in one word.
func ge8(x, y uint64) uint64 {
	const m = 0x8080_8080_8080_8080
	d := ((x | m) - (y &^ m)) ^ ((x ^ ^y) & m) // lane-wise x - y
	lt := ((^x & y) | ((^x | y) & d)) & m      // borrow-out (x < y) at lane MSBs
	return ^((lt >> 7) * 0xFF)
}
