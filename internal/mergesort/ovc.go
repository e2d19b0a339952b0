package mergesort

// Offset-value coding (OVC) for the loser-tree merge paths, after Do &
// Graefe, "Robust and Efficient Sorting with Offset-Value Coding"
// (arXiv 2209.08420). Each record in a sorted run carries a code
// relative to its run predecessor:
//
//	code(R, B) = diff<<8 | R[byte diff-1]      for R > B
//	code(R, B) = 0                             for R == B
//
// where diff is the distance (in bytes, counted from the low end of the
// key) of the most significant byte on which R and B differ. R >= B is
// a precondition — codes are only formed against a record that sorts no
// later. Two properties make the code a comparison surrogate:
//
//  1. For records A, B >= base: code(A,base) < code(B,base) implies
//     A < B. (A smaller code means a longer shared prefix with the
//     base, or the same prefix length and a smaller first differing
//     byte — either way A sits closer to the base.)
//  2. code(A,base) == 0 == code(B,base) implies A == B == base, so an
//     all-ties comparison resolves with no key access at all — the
//     duplicate-heavy fast path.
//
// Equal nonzero codes say only that A and B share their first
// divergence from the base; the comparison then falls back to the full
// keys, and the loser's code is re-based against the winner (the
// record that proceeds up the tree). When codes differ no re-basing is
// needed: if code(A,base) < code(B,base), then code(B,A) ==
// code(B,base), because B's first divergence from base happens strictly
// above any byte where A still agrees with base.
//
// The loser-tree invariant maintained by both trees (stableLoserTree,
// which merges co-partitions of the parallel and top-K merges, and
// loserTreePacked, which runs the sort's phase-3 passes): every stored
// loser's code is relative to the last record that went up through
// that node. The initial build
// uses full comparisons and re-bases every loser against its winner;
// replay comparisons then always see a common base, and the record
// entering after a pop needs its code relative to the record that just
// popped — its own run predecessor, adjacent in the run, so the code is
// computed inline from two cache-hot keys. No per-element code array is
// ever derived or streamed: the only materialized state is one code per
// run head.
//
// In stableLoserTree, whose (key, run index) order is strict and total,
// an entering code of 0 short-circuits the whole replay: the successor
// carries the exact tuple that just won every duel on its path (see
// popStretch). This is where duplicate-heavy merges win big.
//
// A popped winner's code is its code relative to the previously emitted
// record, which would let a chained merge emit output codes for free
// (loserTreePacked.popWithCode) instead of rescanning the output.

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/obs"
)

var (
	obsOVCMerges  = obs.NewCounter("mergesort.ovc_merges")
	obsOVCDerives = obs.NewCounter("mergesort.ovc_derive_runs")
)

// ovcRel returns the offset-value code of key relative to base.
// Precondition: key >= base (both below 2^64; the bank width cancels
// out of the code, so no width parameter is needed).
func ovcRel(key, base uint64) uint32 {
	x := key ^ base
	if x == 0 {
		return 0
	}
	diff := uint((bits.Len64(x) + 7) >> 3) // 1..8, from the low end
	return uint32(diff)<<8 | uint32(key>>(8*(diff-1)))&0xFF
}

// deriveOVCPackedSeg fills ovc[lo:hi] for ascending packed keys where
// the element before lo sorts as prev (0 for a run start, making the
// first element's code relative to the minimal key — a value the trees
// never consult, since the build phase re-bases by full comparison).
// It returns the last key, so ctx-polling callers can chunk a long run.
func deriveOVCPackedSeg(kw []uint64, lanes, lo, hi int, prev uint64, ovc []uint32) uint64 {
	for i := lo; i < hi; i++ {
		k := keyAt(kw, i, lanes)
		ovc[i] = ovcRel(k, prev)
		prev = k
	}
	return prev
}

// deriveOVCRunsPacked derives codes for every run [runs[r], runs[r+1])
// of a packed array.
func deriveOVCRunsPacked(kw []uint64, lanes int, runs []int, ovc []uint32) {
	for r := 0; r+1 < len(runs); r++ {
		deriveOVCPackedSeg(kw, lanes, runs[r], runs[r+1], 0, ovc)
	}
	obsOVCDerives.Add(int64(len(runs) - 1))
}

// deriveOVCElemsSeg is deriveOVCPackedSeg over plain uint64 elements
// (radix-sorted runs).
func deriveOVCElemsSeg(keys []uint64, lo, hi int, prev uint64, ovc []uint32) uint64 {
	for i := lo; i < hi; i++ {
		k := keys[i]
		ovc[i] = ovcRel(k, prev)
		prev = k
	}
	return prev
}

// DeriveOVC returns the offset-value codes of one ascending run — the
// run-generation hook for sorters that produce runs outside the
// three-phase path (RadixSortOVC uses it, and external run producers
// can feed the codes to future merge APIs).
func DeriveOVC(keys []uint64) []uint32 {
	ovc := make([]uint32, len(keys))
	deriveOVCElemsSeg(keys, 0, len(keys), 0, ovc)
	obsOVCDerives.Inc()
	return ovc
}

// OVC audit instrumentation (test-only): when enabled, every
// code-resolved loser-tree comparison re-runs the full key comparison
// and counts disagreements. The flag is a plain bool intentionally —
// tests set it before spawning merge workers and restore it after they
// join, so all accesses are ordered by goroutine creation/Wait.
var (
	ovcAuditEnabled    bool
	ovcAuditResolved   atomic.Int64 // comparisons decided by codes alone
	ovcAuditFallbacks  atomic.Int64 // comparisons that read full keys
	ovcAuditMismatches atomic.Int64 // code verdicts contradicting the keys
	ovcAuditSkips      atomic.Int64 // replays skipped by the code-0 fast path
)

// ovcAudit claims one of <, ==, > for keys (ka, kb) as decided by codes
// and verifies it against the keys themselves.
const (
	ovcClaimLess = iota
	ovcClaimEqual
	ovcClaimGreater
)

func ovcAudit(claim int, ka, kb uint64) {
	ovcAuditResolved.Add(1)
	ok := false
	switch claim {
	case ovcClaimLess:
		ok = ka < kb
	case ovcClaimEqual:
		ok = ka == kb
	case ovcClaimGreater:
		ok = ka > kb
	}
	if !ok {
		ovcAuditMismatches.Add(1)
	}
}

// ovcAuditReset clears the audit counters (test helper).
func ovcAuditReset() {
	ovcAuditResolved.Store(0)
	ovcAuditFallbacks.Store(0)
	ovcAuditMismatches.Store(0)
	ovcAuditSkips.Store(0)
}
