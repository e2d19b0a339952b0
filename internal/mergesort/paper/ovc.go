package paper

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
// The loser-tree invariant maintained by stableLoserTree — the one
// packed tree, under the sort's phase-3 passes and MergePacked:
// every stored loser's code is relative to the last record
// that went up through that node. The initial build uses full
// comparisons and re-bases every loser against its winner; replay
// comparisons then always see a common base, and the record entering
// after a pop needs its code relative to the record that just popped —
// its own run predecessor, adjacent in the run, so the code is computed
// inline from two cache-hot keys. No per-element code array is ever
// derived or streamed: the only materialized state is one code per run
// head.
//
// The tree's (key, run index) order is strict and total, so an entering
// code of 0 short-circuits the whole replay: the successor carries the
// exact tuple that just won every duel on its path (see popStretch).
// This is where duplicate-heavy merges win big, and why the strict
// order is the one worth keeping — under a tie-to-stored-loser rule an
// equal-key stored loser legitimately wins the replay, so the skip is
// unsound there.

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/obs"
)

var obsOVCMerges = obs.NewCounter("mergesort.ovc_merges")

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

// OVC audit instrumentation: while AuditOVC runs, every code-resolved
// loser-tree comparison re-runs the full key comparison and counts
// disagreements. The flag is a plain bool intentionally — AuditOVC sets
// it before its callback spawns merge workers and clears it after they
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

// OVCAudit is what one AuditOVC call counted, field by field the
// counters above.
type OVCAudit struct{ Resolved, Fallbacks, Mismatches, Skips int64 }

// AuditOVC runs f with the audit armed — every coded comparison of the
// loser trees f runs is checked against the full keys — and returns the
// counts. It is the OVC batteries' instrument: calls must not overlap
// each other or a coded merge that f does not wait for.
func AuditOVC(f func()) OVCAudit {
	ovcAuditResolved.Store(0)
	ovcAuditFallbacks.Store(0)
	ovcAuditMismatches.Store(0)
	ovcAuditSkips.Store(0)
	ovcAuditEnabled = true
	defer func() { ovcAuditEnabled = false }()
	f()
	return OVCAudit{ovcAuditResolved.Load(), ovcAuditFallbacks.Load(), ovcAuditMismatches.Load(), ovcAuditSkips.Load()}
}
