package paper

import "repro/internal/simd"

// 16-bit-bank kernels: a 256-bit register holds V = 16 key lanes in four
// words; the 16 corresponding 32-bit oids occupy eight words (two oid
// registers), blended with masks widened from the key-lane comparison.

type reg16 struct {
	k [4]uint64 // 16 key lanes
	o [8]uint64 // 16 oids
}

func load16(kw, ow []uint64, e int) reg16 {
	var r reg16
	w := e >> 2
	copy(r.k[:], kw[w:w+4])
	copy(r.o[:], ow[e>>1:e>>1+8])
	return r
}

func store16(kw, ow []uint64, e int, r reg16) {
	w := e >> 2
	copy(kw[w:w+4], r.k[:])
	copy(ow[e>>1:e>>1+8], r.o[:])
}

// cmpex16r compare-exchanges two registers lane-wise: a keeps the minima.
func cmpex16r(a, b *reg16) {
	for i := 0; i < 4; i++ {
		ge := simd.GE16(a.k[i], b.k[i])
		a.k[i], b.k[i] = simd.Blend(ge, b.k[i], a.k[i]), simd.Blend(ge, a.k[i], b.k[i])
		mLo, mHi := simd.Expand16Lo(ge), simd.Expand16Hi(ge)
		lo, hi := 2*i, 2*i+1
		a.o[lo], b.o[lo] = simd.Blend(mLo, b.o[lo], a.o[lo]), simd.Blend(mLo, a.o[lo], b.o[lo])
		a.o[hi], b.o[hi] = simd.Blend(mHi, b.o[hi], a.o[hi]), simd.Blend(mHi, a.o[hi], b.o[hi])
	}
}

// reverse16r reverses all 16 lanes of the register.
func reverse16r(r reg16) reg16 {
	var out reg16
	for i := 0; i < 4; i++ {
		out.k[i] = simd.Reverse16(r.k[3-i])
	}
	for i := 0; i < 8; i++ {
		out.o[i] = simd.Reverse32(r.o[7-i])
	}
	return out
}

// cleanup16r sorts a register whose 16 lanes form a bitonic sequence:
// compare-exchange at lane distances 8, 4 (word-granular), then 2, 1
// (within words).
func cleanup16r(r *reg16) {
	// Distance 8: word pairs (0,2) and (1,3).
	for _, p := range [2][2]int{{0, 2}, {1, 3}} {
		i, j := p[0], p[1]
		ge := simd.GE16(r.k[i], r.k[j])
		r.k[i], r.k[j] = simd.Blend(ge, r.k[j], r.k[i]), simd.Blend(ge, r.k[i], r.k[j])
		mLo, mHi := simd.Expand16Lo(ge), simd.Expand16Hi(ge)
		a, b := 2*i, 2*j
		r.o[a], r.o[b] = simd.Blend(mLo, r.o[b], r.o[a]), simd.Blend(mLo, r.o[a], r.o[b])
		r.o[a+1], r.o[b+1] = simd.Blend(mHi, r.o[b+1], r.o[a+1]), simd.Blend(mHi, r.o[a+1], r.o[b+1])
	}
	// Distance 4: word pairs (0,1) and (2,3).
	for _, p := range [2][2]int{{0, 1}, {2, 3}} {
		i, j := p[0], p[1]
		ge := simd.GE16(r.k[i], r.k[j])
		r.k[i], r.k[j] = simd.Blend(ge, r.k[j], r.k[i]), simd.Blend(ge, r.k[i], r.k[j])
		mLo, mHi := simd.Expand16Lo(ge), simd.Expand16Hi(ge)
		a, b := 2*i, 2*j
		r.o[a], r.o[b] = simd.Blend(mLo, r.o[b], r.o[a]), simd.Blend(mLo, r.o[a], r.o[b])
		r.o[a+1], r.o[b+1] = simd.Blend(mHi, r.o[b+1], r.o[a+1]), simd.Blend(mHi, r.o[a+1], r.o[b+1])
	}
	// Distances 2 and 1: within each word.
	for i := 0; i < 4; i++ {
		r.k[i] = cleanWord16(r.k[i], &r.o[2*i], &r.o[2*i+1])
	}
}

const (
	low32v    = 0x00000000_FFFFFFFF
	lowEven16 = 0x0000FFFF_0000FFFF
)

// cleanWord16 sorts the four lanes of one word (a bitonic sequence after
// the word-granular stages), keeping the two oid words in step. Each
// stage computes its comparison mask once and derives min/max by blends.
func cleanWord16(k uint64, oLo, oHi *uint64) uint64 {
	// Distance 2: lane pairs (0,2), (1,3); oids swap between the words.
	t := k >> 32
	ge := simd.GE16(k, t) // lanes 0,1 hold the decisions
	mn := simd.Blend(ge, t, k)
	mx := simd.Blend(ge, k, t)
	k = mn&low32v | (mx&low32v)<<32
	m := simd.Expand16Lo(ge)
	*oLo, *oHi = simd.Blend(m, *oHi, *oLo), simd.Blend(m, *oLo, *oHi)

	// Distance 1: lane pairs (0,1), (2,3); oids swap within their word.
	t = k >> 16
	ge = simd.GE16(k, t) // lane 0 decides (0,1); lane 2 decides (2,3)
	mn = simd.Blend(ge, t, k)
	mx = simd.Blend(ge, k, t)
	k = mn&lowEven16 | (mx&lowEven16)<<16
	swapLo := (ge & 1) * ^uint64(0)
	swapHi := ((ge >> 32) & 1) * ^uint64(0)
	*oLo = simd.Blend(swapLo, simd.Reverse32(*oLo), *oLo)
	*oHi = simd.Blend(swapHi, simd.Reverse32(*oHi), *oHi)
	return k
}

// merge32x16 merges two ascending 16-lane registers into an ascending
// 32-element sequence returned as (lower, upper) registers.
func merge32x16(a, b reg16) (lo, hi reg16) {
	br := reverse16r(b)
	cmpex16r(&a, &br)
	cleanup16r(&a)
	cleanup16r(&br)
	return a, br
}

// blockSort16 sorts the 256-element block starting at element e into 16
// ascending runs of 16: Batcher network register-wise, then transpose.
func blockSort16(kw, ow []uint64, e int) {
	var regs [16]reg16
	for r := 0; r < 16; r++ {
		regs[r] = load16(kw, ow, e+16*r)
	}
	for _, c := range net16 {
		cmpex16r(&regs[c[0]], &regs[c[1]])
	}
	// Transpose: run l collects lane l of every register.
	for r := 0; r < 16; r++ {
		for l := 0; l < 16; l++ {
			key := (regs[r].k[l>>2] >> (16 * uint(l&3))) & 0xFFFF
			oid := uint32(regs[r].o[l>>1] >> (32 * uint(l&1)))
			dst := e + 16*l + r
			setKeyAt(kw, dst, 4, key)
			setOidAt(ow, dst, oid)
		}
	}
}

// vecMergeRuns16 merges src[a0:a1] and src[b0:b1] (ascending, packed)
// into dst at d: register-at-a-time main loop, scalar three-way drain.
func vecMergeRuns16(srcK, srcO []uint64, a0, a1, b0, b1 int, dstK, dstO []uint64, d int) {
	const v = 16
	if a1-a0 < v || b1-b0 < v {
		packedScalarMerge(srcK, srcO, 4, a0, a1, b0, b1, dstK, dstO, d)
		return
	}
	r := load16(srcK, srcO, a0)
	i, j := a0+v, b0
	for i+v <= a1 && j+v <= b1 {
		var s reg16
		if keyAt(srcK, i, 4) <= keyAt(srcK, j, 4) {
			s = load16(srcK, srcO, i)
			i += v
		} else {
			s = load16(srcK, srcO, j)
			j += v
		}
		lo, hi := merge32x16(r, s)
		store16(dstK, dstO, d, lo)
		d += v
		r = hi
	}
	var tk [v]uint64
	var to [v]uint32
	for l := 0; l < v; l++ {
		tk[l] = (r.k[l>>2] >> (16 * uint(l&3))) & 0xFFFF
		to[l] = uint32(r.o[l>>1] >> (32 * uint(l&1)))
	}
	packedThreeWayMerge(tk[:], to[:], srcK, srcO, 4, i, a1, j, b1, dstK, dstO, d)
}
