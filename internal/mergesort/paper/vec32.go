package paper

import "repro/internal/simd"

// 32-bit-bank kernels: a 256-bit register holds V = 8 key lanes in four
// words; the eight 32-bit oids occupy four words (one oid register).
// Oid lanes align with key lanes, so key masks blend oids directly.

type reg32 struct {
	k [4]uint64 // 8 key lanes
	o [4]uint64 // 8 oids
}

func load32(kw, ow []uint64, e int) reg32 {
	var r reg32
	w := e >> 1
	copy(r.k[:], kw[w:w+4])
	copy(r.o[:], ow[w:w+4])
	return r
}

func store32(kw, ow []uint64, e int, r reg32) {
	w := e >> 1
	copy(kw[w:w+4], r.k[:])
	copy(ow[w:w+4], r.o[:])
}

func cmpex32r(a, b *reg32) {
	for i := 0; i < 4; i++ {
		ge := simd.GE32(a.k[i], b.k[i])
		a.k[i], b.k[i] = simd.Blend(ge, b.k[i], a.k[i]), simd.Blend(ge, a.k[i], b.k[i])
		a.o[i], b.o[i] = simd.Blend(ge, b.o[i], a.o[i]), simd.Blend(ge, a.o[i], b.o[i])
	}
}

func reverse32r(r reg32) reg32 {
	var out reg32
	for i := 0; i < 4; i++ {
		out.k[i] = simd.Reverse32(r.k[3-i])
		out.o[i] = simd.Reverse32(r.o[3-i])
	}
	return out
}

// cleanup32r sorts a register whose 8 lanes form a bitonic sequence:
// lane distances 4, 2 (word-granular), then 1 (within words).
func cleanup32r(r *reg32) {
	for _, p := range [2][2]int{{0, 2}, {1, 3}} { // distance 4
		i, j := p[0], p[1]
		ge := simd.GE32(r.k[i], r.k[j])
		r.k[i], r.k[j] = simd.Blend(ge, r.k[j], r.k[i]), simd.Blend(ge, r.k[i], r.k[j])
		r.o[i], r.o[j] = simd.Blend(ge, r.o[j], r.o[i]), simd.Blend(ge, r.o[i], r.o[j])
	}
	for _, p := range [2][2]int{{0, 1}, {2, 3}} { // distance 2
		i, j := p[0], p[1]
		ge := simd.GE32(r.k[i], r.k[j])
		r.k[i], r.k[j] = simd.Blend(ge, r.k[j], r.k[i]), simd.Blend(ge, r.k[i], r.k[j])
		r.o[i], r.o[j] = simd.Blend(ge, r.o[j], r.o[i]), simd.Blend(ge, r.o[i], r.o[j])
	}
	for i := 0; i < 4; i++ { // distance 1: within each word
		ge := simd.GE32(r.k[i], r.k[i]>>32) // lane 0 decides the swap
		swap := (ge & 1) * ^uint64(0)
		r.k[i] = simd.Blend(swap, simd.Reverse32(r.k[i]), r.k[i])
		r.o[i] = simd.Blend(swap, simd.Reverse32(r.o[i]), r.o[i])
	}
}

// merge16x32 merges two ascending 8-lane registers into an ascending
// 16-element sequence returned as (lower, upper) registers.
func merge16x32(a, b reg32) (lo, hi reg32) {
	br := reverse32r(b)
	cmpex32r(&a, &br)
	cleanup32r(&a)
	cleanup32r(&br)
	return a, br
}

// blockSort32 sorts the 64-element block starting at element e into 8
// ascending runs of 8.
func blockSort32(kw, ow []uint64, e int) {
	var regs [8]reg32
	for r := 0; r < 8; r++ {
		regs[r] = load32(kw, ow, e+8*r)
	}
	for _, c := range net8 {
		cmpex32r(&regs[c[0]], &regs[c[1]])
	}
	for r := 0; r < 8; r++ {
		for l := 0; l < 8; l++ {
			key := (regs[r].k[l>>1] >> (32 * uint(l&1))) & 0xFFFFFFFF
			oid := uint32(regs[r].o[l>>1] >> (32 * uint(l&1)))
			dst := e + 8*l + r
			setKeyAt(kw, dst, 2, key)
			setOidAt(ow, dst, oid)
		}
	}
}

func vecMergeRuns32(srcK, srcO []uint64, a0, a1, b0, b1 int, dstK, dstO []uint64, d int) {
	const v = 8
	if a1-a0 < v || b1-b0 < v {
		packedScalarMerge(srcK, srcO, 2, a0, a1, b0, b1, dstK, dstO, d)
		return
	}
	r := load32(srcK, srcO, a0)
	i, j := a0+v, b0
	for i+v <= a1 && j+v <= b1 {
		var s reg32
		if keyAt(srcK, i, 2) <= keyAt(srcK, j, 2) {
			s = load32(srcK, srcO, i)
			i += v
		} else {
			s = load32(srcK, srcO, j)
			j += v
		}
		lo, hi := merge16x32(r, s)
		store32(dstK, dstO, d, lo)
		d += v
		r = hi
	}
	var tk [v]uint64
	var to [v]uint32
	for l := 0; l < v; l++ {
		tk[l] = (r.k[l>>1] >> (32 * uint(l&1))) & 0xFFFFFFFF
		to[l] = uint32(r.o[l>>1] >> (32 * uint(l&1)))
	}
	packedThreeWayMerge(tk[:], to[:], srcK, srcO, 2, i, a1, j, b1, dstK, dstO, d)
}
