package paper

import (
	"math"

	"repro/internal/costmodel"
)

// BankConstants are the calibrated per-bank sorting constants of the
// paper's Equations 5–8. The in-register (C_sort-network) and
// in-cache-merge constants both multiply N with no other distinguishing
// regressor in the calibration runs, so they are calibrated as one
// identifiable sum, CLinear = C_sort-network + C_in-cache-merge (see
// DESIGN.md).
type BankConstants struct {
	COverhead   float64 // per SIMD-sort call: allocation + setup (C_overhead)
	CLinear     float64 // per element: in-register + in-cache phases
	COutOfCache float64 // per element per out-of-cache pass
}

// Model is this kernel's T_sort (Equation 2): the per-bank constants and
// the offset-value-coding discount of its out-of-cache merge. Its Sort
// method is a costmodel.SortTerm, which the figure experiments plug into
// costmodel.Model.Sort as they plug Params.Sort into every sort they
// measure; the cache geometry and the insertion regime below
// insertionThreshold come from the costmodel.Model it prices with.
type Model struct {
	Bank map[int]BankConstants
	// OVCMergeDiscount is the measured fraction of the out-of-cache
	// merge cost that offset-value coding removes on all-duplicate input
	// (ovc.go): the effective per-pass constant is
	// COutOfCache·(1 − OVCMergeDiscount·dup). Zero disables the
	// duplicate discount.
	OVCMergeDiscount float64
}

// DefaultModel returns fixed constants, the conservative regime of a
// modern x86 server, with no OVC discount: what the experiments price
// with when they are not handed a calibration.
func DefaultModel() *Model {
	return &Model{Bank: map[int]BankConstants{
		16: {COverhead: 400, CLinear: 220, COutOfCache: 40},
		32: {COverhead: 400, CLinear: 300, COutOfCache: 55},
		64: {COverhead: 400, CLinear: 420, COutOfCache: 80},
	}}
}

// OutOfCachePasses is the ⌈log_F(N·(b/8)/(M_L2/2))⌉ factor of Equation 8
// for an l2-byte M_L2 and the fanout F = DefaultFanout: zero when the
// data already fits half the L2 cache.
func OutOfCachePasses(l2 int64, n float64, bank int) float64 {
	if n <= 0 {
		return 0
	}
	bytes := n * float64(bank/8+4) // key plus 32-bit oid, as implemented
	half := float64(l2) / 2
	if bytes <= half {
		return 0
	}
	return math.Ceil(math.Log(bytes/half) / math.Log(DefaultFanout))
}

// Sort is Equation 2, one SIMD-sort call over n codes in a bank-bit
// bank, with the out-of-cache merge term shrunk by OVCMergeDiscount·dup:
// the offset-value coded loser trees resolve tied comparisons without
// key accesses. The in-cache phases are compare-exchange networks with
// no early-out, so only the merge term is duplicate-sensitive. Below
// insertionThreshold the kernel never enters its merge-sort phases, and
// m's insertion regime applies. The key width does not enter: every
// lane of a bank costs the same.
func (pm *Model) Sort(m *costmodel.Model, n float64, bank, _ int, dup float64) float64 {
	if n < 2 {
		// Singleton groups are not sorted at all.
		return 0
	}
	if n < insertionThreshold {
		return m.TSmall(n)
	}
	bc := pm.Bank[bank]
	ooc := bc.COutOfCache * n * OutOfCachePasses(m.L2, n, bank)
	if dup > 0 && pm.OVCMergeDiscount > 0 {
		ooc *= 1 - min(pm.OVCMergeDiscount, 1)*min(dup, 1)
	}
	return bc.COverhead + bc.CLinear*n + ooc
}
