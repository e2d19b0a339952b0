package paper

import (
	"context"
	"fmt"
	"slices"
)

// mergeCheckEvery is how many merged elements a loser-tree merge emits
// between context polls — the cadence of mergesort's merge of sorted
// runs: frequent enough that cancellation lands well inside a chunk,
// rare enough that the poll is free.
const mergeCheckEvery = 1 << 14

// MergePacked merges the pre-sorted runs of keys/oids bounded by runs
// (runs[0]=0 … runs[len-1]=len(keys)) in place, stable by run index,
// with the paper's packed merge: pack, one offset-value-coded loser tree
// over every run (treeMerge), unpack. The output is byte-identical for
// either setting of p.DisableOVC, which differential tests use to
// compare the coded merge against the plain one, and its keys to
// mergesort.MergeRunsContext's words. It serves the paper-side measurements:
// the cost model's OVC discount calibration, the OVC skew sweep, and the
// OVC on/off and audit batteries. Keys and oids must pair up and runs
// bound ascending runs covering them exactly. On cancellation keys and
// oids are left as passed in.
func MergePacked(ctx context.Context, bank int, keys []uint64, oids []uint32, runs []int, p Params) error {
	if len(keys) != len(oids) {
		return fmt.Errorf("paper: %d keys but %d oids", len(keys), len(oids))
	}
	if len(runs) < 2 || runs[0] != 0 || runs[len(runs)-1] != len(keys) || !slices.IsSorted(runs) {
		return fmt.Errorf("paper: run boundaries must ascend from 0 to %d", len(keys))
	}
	k, err := kernelsFor(bank)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil || len(runs) == 2 {
		return err // a single run is already sorted
	}
	if !p.DisableOVC {
		obsOVCMerges.Inc()
	}
	kw, ow := pack(keys, oids, k.lanes)
	dstK, dstO := make([]uint64, len(kw)), make([]uint64, len(ow))
	if err := treeMerge(ctx, kw, ow, dstK, dstO, k.lanes, runs[:len(runs)-1], runs[1:], !p.DisableOVC, 0); err != nil {
		return err
	}
	unpack(dstK, dstO, k.lanes, keys, oids)
	return nil
}

// treeMerge merges the per-run slices [from[r], to[r]) into dst
// starting at element d, stable by run index, polling the context every
// mergeCheckEvery emitted elements — the one packed loser-tree emit
// loop, under the sort's phase-3 passes and MergePacked alike. With
// useOVC the tree carries an offset-value code per run head: first
// elements are re-based by the tree build and every later entering code
// is computed from its in-run predecessor.
func treeMerge(ctx context.Context, kw, ow, dstK, dstO []uint64, lanes int, from, to []int, useOVC bool, d int) error {
	lt := newStableLoserTree(kw, lanes, from, to, useOVC)
	credit := mergeCheckEvery
	for {
		pos, cnt, key := lt.popStretch(credit)
		if pos < 0 {
			return nil
		}
		for i := 0; i < cnt; i++ {
			setKeyAt(dstK, d, lanes, key)
			setOidAt(dstO, d, oidAt(ow, pos+i))
			d++
		}
		if credit -= cnt; credit <= 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			credit = mergeCheckEvery
		}
	}
}

// stableLoserTree is the package's one tournament tree over packed
// runs — internal nodes store the loser of their sub-tournament, the
// overall winner is cached — driven only through treeMerge. Its
// comparison is the strict total order (key, run index): equal keys
// resolve to the lower-index run, making the merged order independent
// of the tree shape and therefore of how the output was partitioned.
// With useOVC each run head carries an offset-value code (see ovc.go):
// comparisons consult codes first and read key bytes only on code
// ties. The (key, run index) order is computed either way, so the OVC
// tree's decisions — and the merged output — are identical to the
// plain tree's.
type stableLoserTree struct {
	tree   []int
	heads  []int
	ends   []int
	kw     []uint64
	lanes  int
	kPow2  int
	winner int
	codes  []uint32 // per-run head code, re-based during replay (nil: OVC off)
}

func newStableLoserTree(kw []uint64, lanes int, from, to []int, useOVC bool) *stableLoserTree {
	k := len(from)
	kPow2 := 1
	for kPow2 < k {
		kPow2 *= 2
	}
	lt := &stableLoserTree{
		tree:  make([]int, kPow2),
		heads: append([]int(nil), from...),
		ends:  append([]int(nil), to...),
		kw:    kw,
		lanes: lanes,
		kPow2: kPow2,
	}
	if useOVC {
		// No seeding: the build duels below re-base every loser's code
		// against the record that beat it, and the overall winner's
		// code is rewritten at its first pop before any comparison
		// reads it.
		lt.codes = make([]uint32, k)
	}
	winners := make([]int, 2*kPow2)
	for i := 0; i < kPow2; i++ {
		if i < k {
			winners[kPow2+i] = i
		} else {
			winners[kPow2+i] = -1
		}
	}
	for node := kPow2 - 1; node >= 1; node-- {
		// Build duels use full keys, establishing the code invariant:
		// each stored loser's code is relative to the record that last
		// went up through its node.
		a, b := winners[2*node], winners[2*node+1]
		if lt.duelFull(a, b) {
			winners[node], lt.tree[node] = a, b
		} else {
			winners[node], lt.tree[node] = b, a
		}
	}
	lt.winner = winners[1]
	return lt
}

// duelFull compares run heads under the (key, run index) order by full
// keys and, with OVC on, re-bases the loser's code against the winner.
func (lt *stableLoserTree) duelFull(a, b int) bool {
	if a < 0 || lt.heads[a] >= lt.ends[a] {
		return false
	}
	if b < 0 || lt.heads[b] >= lt.ends[b] {
		return true
	}
	ka := keyAt(lt.kw, lt.heads[a], lt.lanes)
	kb := keyAt(lt.kw, lt.heads[b], lt.lanes)
	if lt.codes == nil {
		if ka != kb {
			return ka < kb
		}
		return a < b
	}
	switch {
	case ka < kb:
		lt.codes[b] = ovcRel(kb, ka)
		return true
	case ka > kb:
		lt.codes[a] = ovcRel(ka, kb)
		return false
	case a < b:
		lt.codes[b] = 0
		return true
	default:
		lt.codes[a] = 0
		return false
	}
}

// beats reports whether run a's head precedes run b's head under the
// (key, run index) order; exhausted runs lose to everything.
func (lt *stableLoserTree) beats(a, b int) bool {
	if a < 0 || lt.heads[a] >= lt.ends[a] {
		return false
	}
	if b < 0 || lt.heads[b] >= lt.ends[b] {
		return true
	}
	if lt.codes == nil {
		ka := keyAt(lt.kw, lt.heads[a], lt.lanes)
		kb := keyAt(lt.kw, lt.heads[b], lt.lanes)
		if ka != kb {
			return ka < kb
		}
		return a < b
	}
	ca, cb := lt.codes[a], lt.codes[b]
	if ca != cb {
		if ovcAuditEnabled {
			claim := ovcClaimLess
			if ca > cb {
				claim = ovcClaimGreater
			}
			ovcAudit(claim, keyAt(lt.kw, lt.heads[a], lt.lanes), keyAt(lt.kw, lt.heads[b], lt.lanes))
		}
		return ca < cb
	}
	if ca == 0 {
		// Both heads equal the common base, hence each other: the
		// run-index tie-break fires with no key access — the
		// duplicate-heavy fast path.
		if ovcAuditEnabled {
			ovcAudit(ovcClaimEqual, keyAt(lt.kw, lt.heads[a], lt.lanes), keyAt(lt.kw, lt.heads[b], lt.lanes))
		}
		return a < b
	}
	// Equal nonzero codes: fall back to full keys, re-basing the loser.
	if ovcAuditEnabled {
		ovcAuditFallbacks.Add(1)
	}
	return lt.duelFull(a, b)
}

// popStretch pops the winning run's head and, with OVC on, also claims
// its immediate in-run successors that tie it — at most max elements in
// total. It returns the first popped position, the element count, and
// the popped key ((-1, 0, 0) when all runs are exhausted); the claimed
// elements are contiguous in the source run and share the key.
//
// Correctness of the batch: a successor that equals the record it
// replaces carries the exact (key, run index) tuple that just won every
// duel on this path — under this tree's strict total order it wins them
// all again, and no duel can re-base a stored code (each is either 0,
// tying on run index, or nonzero, losing to 0 outright). Skipping those
// replays leaves the tree in the precise state full replays would, so
// the output stays byte-identical; duplicate-heavy merges collapse into
// stretch scans plus one replay per distinct key. (A tree that resolved
// ties toward the stored loser could not skip — an equal-key stored
// loser would legitimately win there.)
func (lt *stableLoserTree) popStretch(max int) (int, int, uint64) {
	w := lt.winner
	if w < 0 || lt.heads[w] >= lt.ends[w] {
		return -1, 0, 0
	}
	pos := lt.heads[w]
	key := keyAt(lt.kw, pos, lt.lanes)
	cnt := 1
	if lt.codes != nil {
		next := pos + 1
		if next < lt.ends[w] {
			nk := keyAt(lt.kw, next, lt.lanes)
			if nk == key {
				// Tie stretch: scan it out before touching the tree.
				end := lt.ends[w]
				if lim := pos + max; lim < end {
					end = lim
				}
				cnt++
				for pos+cnt < end && keyAt(lt.kw, pos+cnt, lt.lanes) == key {
					cnt++
				}
				if ovcAuditEnabled {
					ovcAuditSkips.Add(int64(cnt - 1))
				}
				lt.heads[w] = pos + cnt
				if pos+cnt < lt.ends[w] {
					c := ovcRel(keyAt(lt.kw, pos+cnt, lt.lanes), key)
					lt.codes[w] = c
					if c == 0 {
						// Only reachable when max cut a stretch short:
						// the continuation ties and wins outright on
						// the next call.
						if ovcAuditEnabled {
							ovcAuditSkips.Add(1)
						}
						return pos, cnt, key
					}
				}
			} else {
				// The successor enters with its code relative to the
				// record that just popped — its in-run predecessor,
				// adjacent in kw and cache-hot, so the code costs a
				// few ALU ops and no side array. nk != key, so the
				// code is nonzero and the replay runs.
				lt.heads[w] = next
				lt.codes[w] = ovcRel(nk, key)
			}
		} else {
			lt.heads[w] = next
		}
	} else {
		lt.heads[w]++
	}
	cur := w
	if lt.codes != nil && !ovcAuditEnabled {
		// Tight replay for the unaudited coded path: beats carries
		// audit hooks whose flag loads cost measurable time in this
		// innermost loop, so the code comparison is inlined here. The
		// logic mirrors beats exactly — codes first, run index on
		// double zero, duelFull (which re-bases the loser) on equal
		// nonzero codes — and the on/off differential batteries pin
		// this loop to the audited one byte for byte.
		heads, ends, codes, tree := lt.heads, lt.ends, lt.codes, lt.tree
		curLive := heads[cur] < ends[cur]
		for node := (lt.kPow2 + w) / 2; node >= 1; node /= 2 {
			s := tree[node]
			if s < 0 || heads[s] >= ends[s] {
				continue
			}
			if !curLive {
				tree[node], cur = cur, s
				curLive = true
				continue
			}
			ca, cb := codes[s], codes[cur]
			var sWins bool
			if ca != cb {
				sWins = ca < cb
			} else if ca == 0 {
				sWins = s < cur
			} else {
				sWins = lt.duelFull(s, cur)
			}
			if sWins {
				tree[node], cur = cur, s
			}
		}
	} else {
		for node := (lt.kPow2 + w) / 2; node >= 1; node /= 2 {
			if lt.beats(lt.tree[node], cur) {
				lt.tree[node], cur = cur, lt.tree[node]
			}
		}
	}
	lt.winner = cur
	return pos, cnt, key
}
