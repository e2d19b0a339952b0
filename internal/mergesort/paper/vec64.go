package paper

import "repro/internal/simd"

// 64-bit-bank kernels: a 256-bit register holds only V = 4 key lanes
// (one per word); the four 32-bit oids occupy two words. This is the
// paper's weakest degree of data-level parallelism — the reason code
// massaging avoids 64-bit-bank rounds when narrower banks suffice.

type reg64 struct {
	k [4]uint64 // 4 key lanes, one per word
	o [2]uint64 // 4 oids
}

func load64(kw, ow []uint64, e int) reg64 {
	var r reg64
	copy(r.k[:], kw[e:e+4])
	copy(r.o[:], ow[e>>1:e>>1+2])
	return r
}

func store64(kw, ow []uint64, e int, r reg64) {
	copy(kw[e:e+4], r.k[:])
	copy(ow[e>>1:e>>1+2], r.o[:])
}

const low32x = uint64(0x00000000_FFFFFFFF)

// oidMask64 builds the oid-word blend mask from the lane masks of two
// adjacent key words (each all-ones or zero).
func oidMask64(mEven, mOdd uint64) uint64 {
	return mEven&low32x | mOdd&^low32x
}

func cmpex64r(a, b *reg64) {
	var m [4]uint64
	for i := 0; i < 4; i++ {
		ge := simd.GE64(a.k[i], b.k[i])
		a.k[i], b.k[i] = simd.Blend(ge, b.k[i], a.k[i]), simd.Blend(ge, a.k[i], b.k[i])
		m[i] = ge
	}
	for w := 0; w < 2; w++ {
		om := oidMask64(m[2*w], m[2*w+1])
		a.o[w], b.o[w] = simd.Blend(om, b.o[w], a.o[w]), simd.Blend(om, a.o[w], b.o[w])
	}
}

func reverse64r(r reg64) reg64 {
	var out reg64
	for i := 0; i < 4; i++ {
		out.k[i] = r.k[3-i]
	}
	out.o[0] = simd.Reverse32(r.o[1])
	out.o[1] = simd.Reverse32(r.o[0])
	return out
}

// cleanup64r sorts a register whose 4 lanes form a bitonic sequence:
// lane distances 2 then 1, all word-granular for keys.
func cleanup64r(r *reg64) {
	// Distance 2: pairs (0,2) and (1,3); oids swap between the oid words.
	ge02 := simd.GE64(r.k[0], r.k[2])
	r.k[0], r.k[2] = simd.Blend(ge02, r.k[2], r.k[0]), simd.Blend(ge02, r.k[0], r.k[2])
	ge13 := simd.GE64(r.k[1], r.k[3])
	r.k[1], r.k[3] = simd.Blend(ge13, r.k[3], r.k[1]), simd.Blend(ge13, r.k[1], r.k[3])
	om := oidMask64(ge02, ge13)
	r.o[0], r.o[1] = simd.Blend(om, r.o[1], r.o[0]), simd.Blend(om, r.o[0], r.o[1])

	// Distance 1: pairs (0,1) and (2,3); oids swap within their word.
	ge01 := simd.GE64(r.k[0], r.k[1])
	r.k[0], r.k[1] = simd.Blend(ge01, r.k[1], r.k[0]), simd.Blend(ge01, r.k[0], r.k[1])
	r.o[0] = simd.Blend(ge01, simd.Reverse32(r.o[0]), r.o[0])
	ge23 := simd.GE64(r.k[2], r.k[3])
	r.k[2], r.k[3] = simd.Blend(ge23, r.k[3], r.k[2]), simd.Blend(ge23, r.k[2], r.k[3])
	r.o[1] = simd.Blend(ge23, simd.Reverse32(r.o[1]), r.o[1])
}

// merge8x64 merges two ascending 4-lane registers into an ascending
// 8-element sequence returned as (lower, upper) registers.
func merge8x64(a, b reg64) (lo, hi reg64) {
	br := reverse64r(b)
	cmpex64r(&a, &br)
	cleanup64r(&a)
	cleanup64r(&br)
	return a, br
}

// blockSort64 sorts the 16-element block starting at element e into 4
// ascending runs of 4.
func blockSort64(kw, ow []uint64, e int) {
	var regs [4]reg64
	for r := 0; r < 4; r++ {
		regs[r] = load64(kw, ow, e+4*r)
	}
	for _, c := range net4 {
		cmpex64r(&regs[c[0]], &regs[c[1]])
	}
	for r := 0; r < 4; r++ {
		for l := 0; l < 4; l++ {
			dst := e + 4*l + r
			kw[dst] = regs[r].k[l]
			setOidAt(ow, dst, uint32(regs[r].o[l>>1]>>(32*uint(l&1))))
		}
	}
}

func vecMergeRuns64(srcK, srcO []uint64, a0, a1, b0, b1 int, dstK, dstO []uint64, d int) {
	const v = 4
	if a1-a0 < v || b1-b0 < v {
		packedScalarMerge(srcK, srcO, 1, a0, a1, b0, b1, dstK, dstO, d)
		return
	}
	r := load64(srcK, srcO, a0)
	i, j := a0+v, b0
	for i+v <= a1 && j+v <= b1 {
		var s reg64
		if srcK[i] <= srcK[j] {
			s = load64(srcK, srcO, i)
			i += v
		} else {
			s = load64(srcK, srcO, j)
			j += v
		}
		lo, hi := merge8x64(r, s)
		store64(dstK, dstO, d, lo)
		d += v
		r = hi
	}
	var tk [v]uint64
	var to [v]uint32
	copy(tk[:], r.k[:])
	for l := 0; l < v; l++ {
		to[l] = uint32(r.o[l>>1] >> (32 * uint(l&1)))
	}
	packedThreeWayMerge(tk[:], to[:], srcK, srcO, 1, i, a1, j, b1, dstK, dstO, d)
}
