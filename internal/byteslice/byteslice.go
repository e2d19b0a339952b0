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
	"errors"
	"fmt"

	"repro/internal/column"
	"repro/internal/simd"
)

// BS is a ByteSlice-encoded column.
type BS struct {
	Width  int // code width in bits
	N      int
	planes [][]byte // ⌈Width/8⌉ planes, most significant first, padded to 8
	shift  uint     // left-align shift: planes store code << shift
}

// FromColumn converts an encoded column to the ByteSlice layout.
func FromColumn(c *column.Column) *BS {
	nPlanes := (c.Width + 7) / 8
	bs := &BS{
		Width:  c.Width,
		N:      len(c.Codes),
		planes: make([][]byte, nPlanes),
		shift:  uint(nPlanes*8 - c.Width),
	}
	padded := (bs.N + 7) &^ 7
	for p := range bs.planes {
		bs.planes[p] = make([]byte, padded)
	}
	for i, code := range c.Codes {
		v := code << bs.shift
		for p := 0; p < nPlanes; p++ {
			bs.planes[p][i] = byte(v >> uint(8*(nPlanes-1-p)))
		}
	}
	return bs
}

// Lookup reconstructs the code at row i by stitching its bytes. It is
// the single-row reference Gather is tested against.
func (bs *BS) Lookup(i int) uint64 {
	var v uint64
	for p := range bs.planes {
		v = v<<8 | uint64(bs.planes[p][i])
	}
	return v >> bs.shift
}

// gatherBlock is the number of rows Gather decodes before moving on: a
// block's row ids (4 KiB) and codes (8 KiB) stay in L1 across all of
// its passes, so only the plane bytes are random reads.
const gatherBlock = 1024

// Gather sets dst[j] to the code at row rows[j] for every j. It decodes
// blocks of gatherBlock rows plane-major, in passes of up to four
// planes with their slice headers hoisted: codes of up to 32 bits take
// one pass that assigns and undoes the left-align shift; wider ones
// first assign their leading planes, then shift the last four in.
// len(dst) must be at least len(rows); dst beyond len(rows) is left
// untouched.
func (bs *BS) Gather(dst []uint64, rows []uint32) {
	n := len(bs.planes)
	k := (n-1)%4 + 1 // planes of the first pass; the second, if any, takes four
	for lo := 0; lo < len(rows); lo += gatherBlock {
		r := rows[lo:min(lo+gatherBlock, len(rows))]
		d := dst[lo : lo+len(r)]
		if k == n {
			assignPlanes(d, r, bs.planes, bs.shift)
			continue
		}
		assignPlanes(d, r, bs.planes[:k], 0)
		p0, p1, p2, p3 := bs.planes[k], bs.planes[k+1], bs.planes[k+2], bs.planes[k+3]
		for j, row := range r {
			d[j] = (d[j]<<32 | uint64(p0[row])<<24 | uint64(p1[row])<<16 | uint64(p2[row])<<8 | uint64(p3[row])) >> bs.shift
		}
	}
}

// assignPlanes sets d[j] to the bytes of up to four planes at row r[j],
// shifted right by shift.
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
	default:
		p0, p1, p2, p3 := ps[0], ps[1], ps[2], ps[3]
		for j, row := range r {
			d[j] = (uint64(p0[row])<<24 | uint64(p1[row])<<16 | uint64(p2[row])<<8 | uint64(p3[row])) >> shift
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
		c += popcount(w)
	}
	return c
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Rows converts the bit vector to a list of row numbers (the record
// numbers passed to lookups).
func (bv *BitVector) Rows() []uint32 {
	out := make([]uint32, 0, bv.Count())
	for i := 0; i < bv.N; i++ {
		if bv.Get(i) {
			out = append(out, uint32(i))
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
		constBytes[p] = simd.Broadcast8(byte(cShift >> uint(8*(nPlanes-1-p))))
	}

	bv := &BitVector{Words: make([]uint64, (bs.N+63)/64), N: bs.N}
	padded := (bs.N + 7) &^ 7
	for base := 0; base < padded; base += 8 {
		var lt, gt uint64 // per-lane byte masks, sticky across planes
		eq := ^uint64(0)  // lanes still undecided (equal so far)
		for p := 0; p < nPlanes; p++ {
			w := loadWord(bs.planes[p], base)
			geM := simd.GE8(w, constBytes[p])
			eqM := simd.EQ8(w, constBytes[p])
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
		// Compact the per-lane byte masks into result bits.
		for lane := 0; lane < 8; lane++ {
			row := base + lane
			if row >= bs.N {
				break
			}
			if res&(0x80<<(8*uint(lane))) != 0 {
				bv.Words[row>>6] |= 1 << (uint(row) & 63)
			}
		}
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

// loadWord loads 8 plane bytes as one word (lane i = plane[base+i]).
func loadWord(plane []byte, base int) uint64 {
	b := plane[base : base+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
