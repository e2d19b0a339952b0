package mergesort

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Multi-threaded sorting and merging (Section 6.4 of the paper). The
// sequential sorter leaves the out-of-cache multiway merge on one core;
// this file parallelizes it: workers cooperatively merge K sorted runs
// by splitting the *output* into equal ranges with a multisequence
// selection (pivot-split merge tree), so every worker merges its
// co-partition of all runs independently. Unlike range partitioning,
// the split is by output rank, so the load balance is perfect whatever
// the key distribution — heavily skewed (zipf, all-equal) inputs cost
// the same as uniform ones.
//
// The merges operate on the packed register representation (lanes
// elements per 64-bit word, b ∈ {16, 32, 64}): sorted runs are packed
// once, merged packed, and unpacked once.
//
// Determinism contract: the parallel merge is stable by run index —
// ties between runs resolve to the lower-index run, and the selection
// cuts equal keys by the same rule — so its output is byte-identical
// for every worker count, including 1. The parallel sort guarantees the
// sorted key order; under the production kernel it is the parallel
// radix sort (radix.go), stable and byte-identical to the sequential
// sort, and under the paper kernel it sorts chunks and merges them here,
// leaving the relative order of equal keys unspecified. internal/mcsort
// verifies the order it needs once, on its final groups, and sorts what
// is left.
//
// Robustness contract (docs/robustness.md): the entry points check the
// context at chunk and co-partition boundaries, and inside the
// loser-tree merge every mergeCheckEvery elements, so a cancelled sort
// returns within one chunk of work. Worker goroutines recover their own
// panics into *pipeerr.PipelineError and cancel their siblings. On any
// error return the caller's keys/oids are in unspecified (but
// memory-safe) order — callers discard them, as mcsort does.

var (
	obsParSorts       = obs.NewCounter("mergesort.parallel_sorts")
	obsParMerges      = obs.NewCounter("mergesort.parallel_merges")
	obsParWorkers     = obs.NewGauge("mergesort.parallel_workers")
	obsParEffX1000    = obs.NewGauge("mergesort.parallel_efficiency_x1000")
	obsParMergeElems  = obs.NewCounter("mergesort.parallel_merge_elements")
	obsParSelectProbe = obs.NewCounter("mergesort.parallel_select_probes")
)

// mergeAlign is the element alignment of worker output boundaries: a
// multiple of every lane count (4, 2, 1) and of the two-oids-per-word
// packing, so no two workers ever read-modify-write the same packed
// word. 8 elements also spans a full 64-byte cache line of oids, which
// keeps false sharing off the store streams.
const mergeAlign = 8

// mergeCheckEvery is how many merged elements a loser-tree merge emits
// between context polls: frequent enough that cancellation lands well
// inside a chunk, rare enough that the poll is free.
const mergeCheckEvery = 1 << 14

// ParallelSortWithParamsContext sorts keys (each value < 2^bank) with
// their oids in place across `workers` goroutines. The production kernel
// sorts by-row chunks with the parallel radix sort (radix.go), whose
// output is byte-identical to SortWithParamsContext's. With p.PaperKernel
// it sorts worker chunks concurrently, then cooperatively
// multiway-merges them, leaving the order of equal keys unspecified.
// Inputs below p.ParallelThreshold or two chunks, or workers < 2, take
// the sequential path. A cancelled context aborts between chunks,
// passes, and mergeCheckEvery-element merge strides, leaving keys/oids
// in unspecified order; a worker panic surfaces as a
// *pipeerr.PipelineError with stage "sort" or "merge".
func ParallelSortWithParamsContext(ctx context.Context, bank int, keys []uint64, oids []uint32, p Params, workers int) error {
	if err := checkArgs(keys, oids); err != nil {
		return err
	}
	n := len(keys)
	p = p.resolved(bank)
	if workers < 2 || n < p.ParallelThreshold || n < insertionThreshold {
		return SortWithParamsContext(ctx, bank, keys, oids, p)
	}
	k := kernelsFor(bank)

	// The paper kernel's chunk boundaries are aligned to whole
	// in-register blocks (v*v elements): phase 1 then sees the same blocks
	// whether a chunk is sorted alone or as part of the whole input.
	bounds := radixChunks(n, workers)
	if p.PaperKernel {
		bounds = pipeerr.Cut(n, workers, k.v*k.v)
	}
	if len(bounds) < 3 {
		return SortWithParamsContext(ctx, bank, keys, oids, p)
	}

	obsParSorts.Inc()
	obsParWorkers.Set(int64(workers))
	busy := pipeerr.StartBusy(workers)
	if !p.PaperKernel {
		if err := parallelRadixSort(ctx, bank, keys, oids, bounds, workers, busy); err != nil {
			return err
		}
		busy.Publish(obsParEffX1000)
		return ctx.Err()
	}

	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort, Busy: busy}
	err := chunks.Ranges(ctx, workers, len(bounds)-1, func(gctx context.Context, c int) error {
		lo, hi := bounds[c], bounds[c+1]
		return SortWithParamsContext(gctx, bank, keys[lo:hi], oids[lo:hi], p)
	})
	if err != nil {
		return err
	}

	// Cooperative multiway merge of the sorted chunks, packed, into the
	// scratch arrays, then a parallel unpack back into the caller's
	// slices.
	kw, ow := pack(keys, oids, k.lanes)
	kw2 := make([]uint64, len(kw))
	ow2 := make([]uint64, len(ow))
	if err := parallelMergePacked(ctx, kw, ow, kw2, ow2, k.lanes, bank, runStarts(bounds), runEnds(bounds), n, !p.DisableOVC, workers, busy); err != nil {
		return err
	}
	if err := parallelUnpack(ctx, kw2, ow2, k.lanes, keys, oids, workers); err != nil {
		return err
	}
	busy.Publish(obsParEffX1000)
	// Final poll: a cancellation that lands during the last merge stride
	// or unpack chunk must still be honored, not dropped.
	return ctx.Err()
}

// ParallelMergeWithParamsContext merges the pre-sorted runs of keys/oids
// bounded by runs (runs[0]=0 … runs[len-1]=len(keys)) in place across
// workers goroutines, stable by run index. The output is byte-identical
// for every worker count — the sequential oracle is workers=1 — and for
// either setting of p.DisableOVC, which differential tests use to
// compare the offset-value-coded merge against the plain one. On
// cancellation or a contained worker panic the keys/oids are in
// unspecified order.
func ParallelMergeWithParamsContext(ctx context.Context, bank int, keys []uint64, oids []uint32, runs []int, p Params, workers int) error {
	if err := checkRuns(keys, oids, runs); err != nil {
		return err
	}
	if len(runs) == 2 {
		return ctx.Err() // single run: already sorted
	}
	lanes := kernelsFor(bank).lanes
	kw, ow := pack(keys, oids, lanes)
	return mergeAndUnpack(ctx, kw, ow, lanes, bank, runStarts(runs), runEnds(runs), keys, oids, !p.DisableOVC, workers)
}

// mergeAndUnpack merges the packed co-runs [from[r], cut[r]) of (kw, ow)
// — len(keys) elements in all — across workers and unpacks the result
// into keys/oids: the full merge when cut holds the run ends, the head
// of the merge when the top-K path cut the runs short.
func mergeAndUnpack(ctx context.Context, kw, ow []uint64, lanes, bank int, from, cut []int, keys []uint64, oids []uint32, useOVC bool, workers int) error {
	busy := pipeerr.StartBusy(workers)
	dstK := make([]uint64, len(kw))
	dstO := make([]uint64, len(ow))
	if err := parallelMergePacked(ctx, kw, ow, dstK, dstO, lanes, bank, from, cut, len(keys), useOVC, workers, busy); err != nil {
		return err
	}
	if err := parallelUnpack(ctx, dstK, dstO, lanes, keys, oids, workers); err != nil {
		return err
	}
	busy.Publish(obsParEffX1000)
	return nil
}

// parallelMergePacked merges the sorted co-runs [from[r], cut[r]) of
// (kw, ow) — total elements in all — into dst[0:total). The output is
// cut into one aligned rank share per worker; a multisequence selection
// resolves each boundary to a cut in every run, and each worker merges
// its co-partition — the per-run slices between two boundaries — with
// the run-index-stable loser tree. Load balance is by output rank, so
// skew across or within runs costs nothing. It serves the full merge
// (cut = run ends), the paper kernel's parallel chunk merge, and the
// truncated top-K merge. Busy time is added to busy when non-nil.
func parallelMergePacked(ctx context.Context, kw, ow, dstK, dstO []uint64, lanes, bank int, from, cut []int, total int, useOVC bool, workers int, busy *pipeerr.Busy) error {
	if total == 0 {
		return nil
	}
	obsParMerges.Inc()
	obsParMergeElems.Add(int64(total))
	if useOVC {
		obsOVCMerges.Inc()
	}

	// Worker output boundaries: equal rank shares, aligned so no two
	// workers share a packed destination word, each resolved to per-run
	// cuts via multisequence selection.
	targets := pipeerr.Cut(total, workers, mergeAlign)
	cuts := make([][]int, len(targets))
	cuts[0], cuts[len(cuts)-1] = from, cut
	for i := 1; i+1 < len(targets); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cuts[i] = splitRuns(kw, lanes, bank, from, cut, targets[i])
	}

	shares := pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1, Site: faultinject.LoserMerge, Busy: busy}
	return shares.Ranges(ctx, workers, len(targets)-1, func(gctx context.Context, w int) error {
		return treeMerge(gctx, kw, ow, dstK, dstO, lanes, cuts[w], cuts[w+1], useOVC, targets[w])
	})
}

func runStarts(runs []int) []int { return runs[:len(runs)-1] }
func runEnds(runs []int) []int   { return runs[1:] }

// selectKeyAtRank returns the key at output rank r−1 of the merged runs
// [from[i], to[i]) — the smallest key v with count(≤ v) ≥ r — by binary
// search over the key domain.
func selectKeyAtRank(kw []uint64, lanes, bank int, from, to []int, r int) uint64 {
	lo, hi := uint64(0), ^uint64(0)
	if bank < 64 {
		hi = uint64(1)<<uint(bank) - 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		le := 0
		for i := range from {
			le += upperBoundPacked(kw, lanes, from[i], to[i], mid) - from[i]
			obsParSelectProbe.Inc()
		}
		if le >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// splitRuns returns, for output rank t of the merged runs [from[r],
// to[r]), the absolute cut position in every run such that the first t
// elements of the run-index-stable merge are exactly the elements below
// the cuts. Equal keys at the boundary are attributed to runs in index
// order — the same rule the stable merge uses — so the cuts are
// consistent with the merged output for any t.
func splitRuns(kw []uint64, lanes, bank int, from, to []int, t int) []int {
	cuts := make([]int, len(from))
	v := selectKeyAtRank(kw, lanes, bank, from, to, t+1)
	// Keys strictly below v are all in; distribute the v-ties to runs in
	// index order until the rank is met.
	extra := t
	for r := range from {
		cuts[r] = lowerBoundPacked(kw, lanes, from[r], to[r], v)
		extra -= cuts[r] - from[r]
	}
	for r := 0; r < len(from) && extra > 0; r++ {
		take := upperBoundPacked(kw, lanes, cuts[r], to[r], v) - cuts[r]
		if take > extra {
			take = extra
		}
		cuts[r] += take
		extra -= take
	}
	return cuts
}

// lowerBoundPacked returns the first index in [lo, hi) whose key is >= v.
func lowerBoundPacked(kw []uint64, lanes, lo, hi int, v uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyAt(kw, mid, lanes) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBoundPacked returns the first index in [lo, hi) whose key is > v.
func upperBoundPacked(kw []uint64, lanes, lo, hi int, v uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyAt(kw, mid, lanes) <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// treeMerge merges the per-run slices [from[r], to[r]) into dst
// starting at element d, stable by run index, polling the context every
// mergeCheckEvery emitted elements — the one loser-tree emit loop, under
// the sort's phase-3 passes and every cooperative merge alike. With
// useOVC the tree carries an offset-value code per run head; a cut run
// needs no special handling because first elements are re-based by the
// tree build and every later entering code is computed from its in-run
// predecessor.
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
		// Tight replay for the production coded path: beats carries
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

// parallelUnpack converts the packed arrays back into keys/oids across
// workers, chunked on word-aligned boundaries.
func parallelUnpack(ctx context.Context, kw, ow []uint64, lanes int, keys []uint64, oids []uint32, workers int) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1, Align: mergeAlign, MinRows: mergeAlign * workers}
	return pass.Rows(ctx, len(keys), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = keyAt(kw, i, lanes)
			oids[i] = oidAt(ow, i)
		}
	})
}
