// Package simd implements SIMD-within-a-register (SWAR) primitives that
// stand in for the AVX2 intrinsics used by the paper.
//
// The paper's SIMD-sort operates on S-bit vector registers holding S/b
// lanes of b-bit unsigned codes (b is the "bank size"). Go has no vector
// intrinsics, so this package provides branch-free lane-wise compare,
// min/max and blend operations over 64-bit words built from ordinary
// integer arithmetic; package mergesort composes four such words into a
// 256-bit register (S = 256, as in AVX2). The essential property of the
// paper survives: one word-level operation processes 64/b codes at once,
// so narrower banks enjoy proportionally higher data-level parallelism —
// exactly the resource code massaging trades against sorting rounds.
//
// Sorting permutes object identifiers (oids) alongside keys. Oids are
// 32-bit and ride in parallel words; each lane-wise key decision is
// widened to a 32-bit lane mask so the oid words are blended by exactly
// the same comparison outcome, mirroring how AVX2 implementations shuffle
// payload registers with the control computed from keys.
//
// Like the paper (footnote 4), 8-bit banks are not used: b ∈ {16, 32, 64}.
package simd

const (
	lowHalves = 0x0000FFFF_0000FFFF
	low32     = 0x00000000_FFFFFFFF
)

// Lane-geometry masks for the width-generic compare. All three widths use
// the *same instruction sequence* with different constants, so one
// simulated vector operation costs the same number of scalar operations
// regardless of bank width — mirroring real SIMD hardware, where a vector
// instruction is one µop whether it operates on 16- or 64-bit lanes. This
// uniformity is what lets the measured per-element throughput scale with
// the degree of data-level parallelism 64/b, as the paper's model assumes.
const (
	msb16 = 0x8000_8000_8000_8000
	msb32 = 0x80000000_80000000
	msb64 = 0x80000000_00000000
)

// geGeneric computes the lane-wise x >= y mask for lanes of width l with
// MSB mask m, using lane-local subtraction (Hacker's Delight §2-18) and
// borrow detection. The operation count is independent of the lane width.
func geGeneric(x, y, m uint64, l uint) uint64 {
	d := ((x | m) - (y &^ m)) ^ ((x ^ ^y) & m) // lane-wise x - y
	lt := ((^x & y) | ((^x | y) & d)) & m      // borrow-out (x < y) at lane MSBs
	ltMask := (lt >> (l - 1)) * laneOnes(l)    // widen indicator to full lanes
	return ^ltMask
}

// laneOnes returns the all-ones pattern of one lane of width l (the
// multiplier that spreads a per-lane indicator bit across the lane).
func laneOnes(l uint) uint64 {
	if l == 64 {
		return ^uint64(0)
	}
	return (1 << l) - 1
}

// GE16 returns a lane mask for four 16-bit lanes: lane i of the result is
// 0xFFFF when lane i of x is >= lane i of y (unsigned), else 0.
func GE16(x, y uint64) uint64 { return geGeneric(x, y, msb16, 16) }

// GE32 returns a lane mask for two 32-bit lanes: lane i of the result is
// 0xFFFFFFFF when lane i of x is >= lane i of y (unsigned), else 0.
func GE32(x, y uint64) uint64 { return geGeneric(x, y, msb32, 32) }

// GE64 returns all-ones when x >= y (unsigned), else zero, without a
// branch. Unlike the narrower banks, this is NOT a single simulated
// vector op: AVX2 has no unsigned 64-bit compare and no 64-bit min/max
// at all, so real implementations compose them from narrower operations
// (compare high halves; on equality, compare low halves) — e.g. the
// Balkesen et al. kernels the paper builds on. We mirror that
// composition, so 64-bit-bank compare-exchanges genuinely cost about
// twice their 32-bit counterparts, exactly as on the paper's hardware.
func GE64(x, y uint64) uint64 {
	geHiXY := geGeneric(x&^uint64(low32), y&^uint64(low32), msb32, 32)
	geHiYX := geGeneric(y&^uint64(low32), x&^uint64(low32), msb32, 32)
	geLo := geGeneric(x<<32, y<<32, msb32, 32)
	gtHi := geHiXY &^ geHiYX
	eqHi := geHiXY & geHiYX
	ge := gtHi | (eqHi & geLo)
	return (ge >> 63) * ^uint64(0) // spread the verdict across the word
}

// Expand16Lo widens the masks of 16-bit lanes 0 and 1 to 32-bit lanes,
// producing the blend mask for the oid word that carries oids 0 and 1.
func Expand16Lo(m uint64) uint64 {
	return (m&1)*0xFFFFFFFF | ((m>>16)&1)*0xFFFFFFFF<<32
}

// Expand16Hi widens the masks of 16-bit lanes 2 and 3 to 32-bit lanes,
// producing the blend mask for the oid word that carries oids 2 and 3.
func Expand16Hi(m uint64) uint64 {
	return ((m>>32)&1)*0xFFFFFFFF | ((m>>48)&1)*0xFFFFFFFF<<32
}

// Blend returns (x & m) | (y &^ m): lane-wise select of x where the mask
// is set and y elsewhere, for any lane geometry encoded in m.
func Blend(m, x, y uint64) uint64 {
	return (x & m) | (y &^ m)
}

// Reverse16 reverses the order of the four 16-bit lanes of x.
func Reverse16(x uint64) uint64 {
	x = x>>32 | x<<32
	return (x>>16)&lowHalves | (x&lowHalves)<<16
}

// Reverse32 swaps the two 32-bit lanes of x.
func Reverse32(x uint64) uint64 {
	return x>>32 | x<<32
}
