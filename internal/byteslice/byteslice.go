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
// codes are all 0; Encode fills it in.
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

// FromColumn converts an encoded column to the ByteSlice layout.
func FromColumn(c *column.Column) *BS {
	bs := New(c.Width, len(c.Codes))
	bs.Encode(c.Codes, 0)
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

// gatherBlock is the number of rows Gather, Decode and Encode take
// before moving on: a block's row ids (4 KiB) and codes (8 KiB) stay in
// L1 across all of its passes, so only the plane bytes come from memory.
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

// Encode stores codes[j], each of which must fit bs.Width bits, at row
// lo+j for every j: the mirror of Decode, block by block, each block
// written one plane at a time (sequential writes).
func (bs *BS) Encode(codes []uint64, lo int) {
	last := len(bs.planes) - 1
	for b := 0; b < len(codes); b += gatherBlock {
		c := codes[b:min(b+gatherBlock, len(codes))]
		// Plane p holds byte p of code << shift, most significant first.
		for p, plane := range bs.planes[:last] {
			d := plane[lo+b:][:len(c)]
			s := uint(8*(last-p)) - bs.shift
			for j, v := range c {
				d[j] = byte(v >> (s & 63))
			}
		}
		d := bs.planes[last][lo+b:][:len(c)]
		for j, v := range c {
			d[j] = byte(v << (bs.shift & 63))
		}
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

// Bits is a bit range of a column's codes compiled for OrBits: bits
// [lo, hi) of a code, counted from its most significant bit,
// complemented for a descending column and shifted left into a key.
// Codes are left-aligned, so the range lies in planes lo/8 … (hi−1)/8
// and no other plane is read. A range over up to four planes is one
// run over them; a wider one is two, its leading planes and its last
// four, each ORed in at its own shift.
type Bits struct {
	runs [2]bitRun
	n    int // runs in use
}

// bitRun stitches up to four planes' bytes into one value, shifts it
// right by rshift, masks it, complements it with flip and shifts it
// left by lshift.
type bitRun struct {
	plane, planes  int // first plane, plane count (1..4)
	rshift, lshift uint
	mask, flip     uint64
}

// NewBits compiles bits [lo, hi) of a code, 0 <= lo < hi <= 64, into
// a key at left shift shift (shift + hi − lo <= 64), complemented when
// desc.
func NewBits(lo, hi int, shift uint, desc bool) Bits {
	if first, last := lo/8, (hi-1)/8; last-first >= 4 {
		mid := 8 * (last - 3) // the first bit of the last four planes
		return Bits{runs: [2]bitRun{newBitRun(lo, mid, shift+uint(hi-mid), desc), newBitRun(mid, hi, shift, desc)}, n: 2}
	}
	return Bits{runs: [2]bitRun{newBitRun(lo, hi, shift, desc)}, n: 1}
}

// Planes is the number of planes b's range covers: OrBits reads one
// byte of each per row.
func (b *Bits) Planes() int {
	n := 0
	for _, r := range b.runs[:b.n] {
		n += r.planes
	}
	return n
}

func newBitRun(lo, hi int, shift uint, desc bool) bitRun {
	first, last := lo/8, (hi-1)/8
	r := bitRun{plane: first, planes: last - first + 1, rshift: uint(8*(last+1) - hi), lshift: shift, mask: column.Mask(hi - lo)}
	if desc {
		r.flip = r.mask
	}
	return r
}

// OrBits ORs b's bits of the code at each row into dst: those of row
// rows[j] into dst[j], or, when rows is nil, those of row from+j. It
// is the massage's four-instruction program read straight from the
// planes: one pass per run, a byte of each covered plane per row, and
// no code is decoded whole. len(rows), when rows is not nil, must equal
// len(dst).
func (bs *BS) OrBits(dst []uint64, rows []uint32, from int, b *Bits) {
	for i := range b.runs[:b.n] {
		r := &b.runs[i]
		ps := bs.planes[r.plane : r.plane+r.planes]
		if rows == nil {
			orRange(dst, ps, from, r)
		} else {
			orRows(dst, rows, ps, r)
		}
	}
}

// orRange is OrBits' run over rows from … from+len(d)−1: sequential
// bytes, one loop per plane count with the plane windows hoisted. The
// shift counts are masked so that no over-shift guard is compiled in.
func orRange(d []uint64, ps [][]byte, from int, r *bitRun) {
	rs, ls, mask, flip := r.rshift, r.lshift, r.mask, r.flip
	to := from + len(d)
	switch len(ps) {
	case 1:
		p0 := ps[0][from:to]
		for j := range d {
			d[j] |= (uint64(p0[j])>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	case 2:
		p0, p1 := ps[0][from:to], ps[1][from:to]
		for j := range d {
			v := uint64(p0[j])<<8 | uint64(p1[j])
			d[j] |= (v>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	case 3:
		p0, p1, p2 := ps[0][from:to], ps[1][from:to], ps[2][from:to]
		for j := range d {
			v := uint64(p0[j])<<16 | uint64(p1[j])<<8 | uint64(p2[j])
			d[j] |= (v>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	default:
		p0, p1, p2, p3 := ps[0][from:to], ps[1][from:to], ps[2][from:to], ps[3][from:to]
		for j := range d {
			v := uint64(p0[j])<<24 | uint64(p1[j])<<16 | uint64(p2[j])<<8 | uint64(p3[j])
			d[j] |= (v>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	}
}

// orRows is orRange at the rows r names.
func orRows(d []uint64, r []uint32, ps [][]byte, run *bitRun) {
	rs, ls, mask, flip := run.rshift, run.lshift, run.mask, run.flip
	d = d[:len(r)]
	switch len(ps) {
	case 1:
		p0 := ps[0]
		for j, row := range r {
			d[j] |= (uint64(p0[row])>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	case 2:
		p0, p1 := ps[0], ps[1]
		for j, row := range r {
			v := uint64(p0[row])<<8 | uint64(p1[row])
			d[j] |= (v>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	case 3:
		p0, p1, p2 := ps[0], ps[1], ps[2]
		for j, row := range r {
			v := uint64(p0[row])<<16 | uint64(p1[row])<<8 | uint64(p2[row])
			d[j] |= (v>>(rs&63)&mask ^ flip) << (ls & 63)
		}
	default:
		p0, p1, p2, p3 := ps[0], ps[1], ps[2], ps[3]
		for j, row := range r {
			v := uint64(p0[row])<<24 | uint64(p1[row])<<16 | uint64(p2[row])<<8 | uint64(p3[row])
			d[j] |= (v>>(rs&63)&mask ^ flip) << (ls & 63)
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
func (bv *BitVector) Count() int { return popCount(bv.Words) }

// NewBitVector returns an all-clear bit vector over n rows.
func NewBitVector(n int) *BitVector {
	return &BitVector{Words: make([]uint64, (n+63)/64), N: n}
}

// Rows converts the bit vector to a list of row numbers (the record
// numbers passed to lookups): CountWords and FillRows over every word.
func (bv *BitVector) Rows() []uint32 {
	out := make([]uint32, bv.Count())
	bv.FillRows(out, 0, len(bv.Words))
	return out
}

// CountWords is the number of set rows in words [lo, hi): the first
// pass of a row list built over ranges of words, whose counts place
// each range's rows in the list.
func (bv *BitVector) CountWords(lo, hi int) int { return popCount(bv.Words[lo:hi]) }

// FillRows writes the row numbers of the set bits of words [lo, hi)
// into dst, which has room for exactly them (CountWords(lo, hi)), a
// word at a time: an all-ones word is a run of 64 rows, any other word
// yields its set bits lowest first.
func (bv *BitVector) FillRows(dst []uint32, lo, hi int) {
	k := 0
	for wi, w := range bv.Words[lo:hi] {
		base := uint32(lo+wi) << 6
		if w == ^uint64(0) {
			run := dst[k : k+64]
			for b := range run {
				run[b] = base + uint32(b)
			}
			k += 64
			continue
		}
		for ; w != 0; w &= w - 1 {
			dst[k] = base + uint32(bits.TrailingZeros64(w))
			k++
		}
	}
}

// popCount is the number of set bits of words.
func popCount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
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

// predicate is `code op constant` compiled against a column: the
// constant's byte of each plane broadcast to the eight lanes of a word.
type predicate struct {
	op     Op
	planes [8]uint64
}

// compile checks that constant is a code of the column's domain and
// broadcasts its plane bytes.
func (bs *BS) compile(op Op, constant uint64) (predicate, error) {
	if constant&^column.Mask(bs.Width) != 0 {
		return predicate{}, fmt.Errorf("%w: %d exceeds %d bits", ErrConstantDomain, constant, bs.Width)
	}
	pr := predicate{op: op}
	nPlanes := len(bs.planes)
	cShift := constant << bs.shift
	for p := 0; p < nPlanes; p++ {
		pr.planes[p] = uint64(byte(cShift>>uint(8*(nPlanes-1-p)))) * 0x0101_0101_0101_0101
	}
	return pr, nil
}

// Filter is a predicate compiled against a column — `code op
// constant`, or lo <= code <= hi — that evaluates into any range of a
// result bit vector's words (Words), so a filter stage can cut the
// column's rows into ranges of whole words across workers.
type Filter struct {
	bs    *BS
	preds [2]predicate
	n     int // predicates in use, ANDed
}

// Filter compiles `code op constant`; the constant must be a code in
// the column's domain (ErrConstantDomain).
func (bs *BS) Filter(op Op, constant uint64) (*Filter, error) {
	pr, err := bs.compile(op, constant)
	if err != nil {
		return nil, err
	}
	return &Filter{bs: bs, preds: [2]predicate{pr}, n: 1}, nil
}

// FilterBetween compiles lo <= code <= hi: two plane walks per word,
// their results ANDed.
func (bs *BS) FilterBetween(lo, hi uint64) (*Filter, error) {
	ge, err := bs.compile(GE, lo)
	if err != nil {
		return nil, err
	}
	le, err := bs.compile(LE, hi)
	if err != nil {
		return nil, err
	}
	return &Filter{bs: bs, preds: [2]predicate{ge, le}, n: 2}, nil
}

// Words sets words [lo, hi) of bv, a bit vector over the column's rows
// (NewBitVector(bs.N)), to the predicate's result for their rows: word
// w covers rows 64w … 64w+63. Eight codes are processed per word per
// plane; planes below the first deciding byte are skipped for words
// whose rows are all decided — ByteSlice's early stopping. Every word
// is a function of its own rows, so any cut of the words gives the same
// bit vector.
func (f *Filter) Words(bv *BitVector, lo, hi int) {
	for w := lo; w < hi; w++ {
		v := f.bs.scanWord(w, &f.preds[0])
		if f.n == 2 && v != 0 {
			v &= f.bs.scanWord(w, &f.preds[1])
		}
		bv.Words[w] = v
	}
}

// Scan evaluates `code op constant` over the whole column and returns
// the result bit vector: Filter's Words over every word. The constant
// is a code in the column's domain.
func (bs *BS) Scan(op Op, constant uint64) (*BitVector, error) {
	f, err := bs.Filter(op, constant)
	if err != nil {
		return nil, err
	}
	return f.all(), nil
}

// ScanBetween evaluates lo <= code <= hi over the whole column:
// FilterBetween's Words over every word.
func (bs *BS) ScanBetween(lo, hi uint64) (*BitVector, error) {
	f, err := bs.FilterBetween(lo, hi)
	if err != nil {
		return nil, err
	}
	return f.all(), nil
}

// all evaluates f over every word.
func (f *Filter) all() *BitVector {
	bv := NewBitVector(f.bs.N)
	f.Words(bv, 0, len(bv.Words))
	return bv
}

// scanWord is the result word w of pr: rows 64w … 64w+63, eight at a
// time, plane by plane until every lane of the eight is decided.
func (bs *BS) scanWord(w int, pr *predicate) uint64 {
	var word uint64
	padded := (bs.N + 7) &^ 7
	for base := w * 64; base < min(w*64+64, padded); base += 8 {
		var lt, gt uint64 // per-lane byte masks, sticky across planes
		eq := ^uint64(0)  // lanes still undecided (equal so far)
		for p, plane := range bs.planes {
			x := binary.LittleEndian.Uint64(plane[base:]) // lane i is row base+i
			geM := ge8(x, pr.planes[p])
			eqM := geM & ge8(pr.planes[p], x)
			lt |= eq & ^geM
			gt |= eq & (geM &^ eqM)
			eq &= eqM
			if eq == 0 {
				break // early stop: every lane decided
			}
		}
		var res uint64
		switch pr.op {
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
		word |= lanes << (uint(base) & 63)
	}
	return word
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
