package paper

// This file holds the register-model plumbing shared by the three bank
// widths: packed key/oid storage, scalar access paths for run tails, and
// the sorting-network generator for the in-register phase.
//
// A simulated vector register is 256 bits wide ([4]uint64, S = 256 as in
// AVX2) and holds V = S/b lanes of b-bit keys. Oids are 32-bit and ride
// in parallel registers (V/2 words). Every lane operation is built from
// the width-generic uniform-cost primitives of internal/simd, so one
// register operation costs the same for every bank width and per-element
// throughput scales with the lane count V — the data-level parallelism
// the paper's code massaging trades against sorting rounds.

const wordsPerReg = 4 // 256-bit register as four 64-bit words

// keyAt reads element i from a packed key array with `lanes` lanes per word.
func keyAt(kw []uint64, i, lanes int) uint64 {
	switch lanes {
	case 1:
		return kw[i]
	case 2:
		return (kw[i>>1] >> (32 * uint(i&1))) & 0xFFFFFFFF
	default: // 4
		return (kw[i>>2] >> (16 * uint(i&3))) & 0xFFFF
	}
}

// setKeyAt writes element i of a packed key array.
func setKeyAt(kw []uint64, i, lanes int, v uint64) {
	switch lanes {
	case 1:
		kw[i] = v
	case 2:
		sh := 32 * uint(i&1)
		kw[i>>1] = kw[i>>1]&^(uint64(0xFFFFFFFF)<<sh) | v<<sh
	default:
		sh := 16 * uint(i&3)
		kw[i>>2] = kw[i>>2]&^(uint64(0xFFFF)<<sh) | v<<sh
	}
}

// oidAt reads the oid of element i (two oids per word).
func oidAt(ow []uint64, i int) uint32 {
	return uint32(ow[i>>1] >> (32 * uint(i&1)))
}

// setOidAt writes the oid of element i.
func setOidAt(ow []uint64, i int, v uint32) {
	sh := 32 * uint(i&1)
	ow[i>>1] = ow[i>>1]&^(uint64(0xFFFFFFFF)<<sh) | uint64(v)<<sh
}

// pack converts unpacked keys and oids into packed word arrays. The
// returned slices carry a register of slack at the end so full-register
// loads at run boundaries stay in bounds.
func pack(keys []uint64, oids []uint32, lanes int) (kw, ow []uint64) {
	n := len(keys)
	kw = make([]uint64, (n+lanes-1)/lanes+wordsPerReg)
	ow = make([]uint64, (n+1)/2+wordsPerReg*2)
	switch lanes {
	case 1:
		copy(kw, keys)
	case 2:
		for i, k := range keys {
			kw[i>>1] |= k << (32 * uint(i&1))
		}
	default:
		for i, k := range keys {
			kw[i>>2] |= k << (16 * uint(i&3))
		}
	}
	for i, o := range oids {
		ow[i>>1] |= uint64(o) << (32 * uint(i&1))
	}
	return kw, ow
}

// unpack converts packed word arrays back into keys and oids.
func unpack(kw, ow []uint64, lanes int, keys []uint64, oids []uint32) {
	for i := range keys {
		keys[i] = keyAt(kw, i, lanes)
		oids[i] = oidAt(ow, i)
	}
}

// packedInsertionSort sorts elements [lo, hi) of a packed array in place;
// used for the sub-block tail of phase 1 and for tiny inputs.
func packedInsertionSort(kw, ow []uint64, lanes, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		k, o := keyAt(kw, i, lanes), oidAt(ow, i)
		j := i - 1
		for j >= lo && keyAt(kw, j, lanes) > k {
			setKeyAt(kw, j+1, lanes, keyAt(kw, j, lanes))
			setOidAt(ow, j+1, oidAt(ow, j))
			j--
		}
		setKeyAt(kw, j+1, lanes, k)
		setOidAt(ow, j+1, o)
	}
}

// packedScalarMerge merges src[a0:a1] and src[b0:b1] into dst starting at
// d, element-at-a-time through the packed accessors.
func packedScalarMerge(srcK, srcO []uint64, lanes, a0, a1, b0, b1 int, dstK, dstO []uint64, d int) {
	i, j := a0, b0
	for i < a1 && j < b1 {
		ki, kj := keyAt(srcK, i, lanes), keyAt(srcK, j, lanes)
		if ki <= kj {
			setKeyAt(dstK, d, lanes, ki)
			setOidAt(dstO, d, oidAt(srcO, i))
			i++
		} else {
			setKeyAt(dstK, d, lanes, kj)
			setOidAt(dstO, d, oidAt(srcO, j))
			j++
		}
		d++
	}
	for i < a1 {
		setKeyAt(dstK, d, lanes, keyAt(srcK, i, lanes))
		setOidAt(dstO, d, oidAt(srcO, i))
		i, d = i+1, d+1
	}
	for j < b1 {
		setKeyAt(dstK, d, lanes, keyAt(srcK, j, lanes))
		setOidAt(dstO, d, oidAt(srcO, j))
		j, d = j+1, d+1
	}
}

// packedThreeWayMerge merges a spilled register (rk, ro — sorted) with
// src[i0:i1] and src[j0:j1] into dst at d.
func packedThreeWayMerge(rk []uint64, ro []uint32, srcK, srcO []uint64, lanes, i0, i1, j0, j1 int, dstK, dstO []uint64, d int) {
	ri := 0
	for {
		best := -1
		var bk uint64
		if ri < len(rk) {
			best, bk = 0, rk[ri]
		}
		if i0 < i1 {
			if k := keyAt(srcK, i0, lanes); best < 0 || k < bk {
				best, bk = 1, k
			}
		}
		if j0 < j1 {
			if k := keyAt(srcK, j0, lanes); best < 0 || k < bk {
				best, bk = 2, k
			}
		}
		switch best {
		case -1:
			return
		case 0:
			setKeyAt(dstK, d, lanes, rk[ri])
			setOidAt(dstO, d, ro[ri])
			ri++
		case 1:
			setKeyAt(dstK, d, lanes, keyAt(srcK, i0, lanes))
			setOidAt(dstO, d, oidAt(srcO, i0))
			i0++
		default:
			setKeyAt(dstK, d, lanes, keyAt(srcK, j0, lanes))
			setOidAt(dstO, d, oidAt(srcO, j0))
			j0++
		}
		d++
	}
}

// batcherNetwork returns the comparator list of Batcher's odd-even
// merge-sort network for n inputs (n a power of two). Applying the
// comparators in order sorts any input; the in-register phase applies
// each comparator register-wise across lanes.
func batcherNetwork(n int) [][2]int {
	var cs [][2]int
	var merge func(lo, m, r int)
	merge = func(lo, m, r int) {
		step := r * 2
		if step < m {
			merge(lo, m, step)
			merge(lo+r, m, step)
			for i := lo + r; i+r < lo+m; i += step {
				cs = append(cs, [2]int{i, i + r})
			}
		} else {
			cs = append(cs, [2]int{lo, lo + r})
		}
	}
	var sortRange func(lo, m int)
	sortRange = func(lo, m int) {
		if m > 1 {
			h := m / 2
			sortRange(lo, h)
			sortRange(lo+h, h)
			merge(lo, m, 1)
		}
	}
	sortRange(0, n)
	return cs
}

// Comparator networks for the in-register phase, one per lane count.
var (
	net16 = batcherNetwork(16) // b=16: 16 registers of 16 lanes
	net8  = batcherNetwork(8)  // b=32: 8 registers of 8 lanes
	net4  = batcherNetwork(4)  // b=64: 4 registers of 4 lanes
)
