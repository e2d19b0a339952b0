package mergesort

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// The one merge of sorted runs, under the coordinator's cross-shard
// gather (internal/shard) and the paper kernel's chunk merge
// (internal/mergesort/paper). It reads
// unpacked runs in place: nothing is concatenated, packed or
// offset-value coded. Across workers the output is cut into equal rank
// shares, one selection (splitRuns) resolves each share boundary to a
// cut in every run, and each share merges its co-partition with a loser
// tree over the run heads, O(log k) per row — balanced by output rank
// whatever the key skew. The merge is stable by run index and the
// selection cuts equal keys by the same rule, so the output is
// byte-identical at every worker count.

var (
	obsParMerges      = obs.NewCounter("mergesort.parallel_merges")
	obsParMergeElems  = obs.NewCounter("mergesort.parallel_merge_elements")
	obsParSelectProbe = obs.NewCounter("mergesort.parallel_select_probes")
)

// mergeCheckEvery is how many rows a rank share merges between context
// polls: frequent enough that cancellation lands well inside a share,
// rare enough that the poll is free.
const mergeCheckEvery = 1 << 14

// MergeRunsContext merges the sorted runs keys[r] with their payloads
// pay[r] into one new pair, stable by run index: equal keys come out in
// run order, and within a run in input order. It stops after exactly
// min(limit, total) rows; limit ≤ 0 means all of them. A single
// non-empty run comes back uncopied, cut to the limit. At workers ≥ 2
// the rank shares merge concurrently, one pipeerr.Pass range each (site
// faultinject.LoserMerge), and the output is byte-identical at every
// worker count. The context is polled on entry, at every share boundary
// and every mergeCheckEvery rows inside a share; on error no rows are
// returned, and a share panic surfaces as a *pipeerr.PipelineError with
// stage "merge". The runs are never written.
func MergeRunsContext(ctx context.Context, keys [][]uint64, pay [][]uint32, limit, workers int) ([]uint64, []uint32, error) {
	total, only, err := runTotal(keys, pay)
	if err != nil {
		return nil, nil, err
	}
	n := total
	if limit > 0 && limit < n {
		n = limit
	}
	switch {
	case ctx.Err() != nil:
		return nil, nil, ctx.Err()
	case n == 0:
		return nil, nil, nil
	case only >= 0:
		return keys[only][:n], pay[only][:n], nil
	}
	obsParMerges.Inc()
	obsParMergeElems.Add(int64(n))

	targets := pipeerr.Cut(n, workers, 1)
	cuts := make([][]int, len(targets))
	cuts[0] = make([]int, len(keys))
	for i := 1; i < len(targets); i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cuts[i] = splitRuns(keys, targets[i])
	}

	outK, outP := make([]uint64, n), make([]uint32, n)
	busy := pipeerr.StartBusy(workers)
	shares := pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1, Site: faultinject.LoserMerge, Busy: busy}
	err = shares.Ranges(ctx, workers, len(targets)-1, func(gctx context.Context, w int) error {
		lo, hi := targets[w], targets[w+1]
		return mergeShare(gctx, keys, pay, cuts[w], cuts[w+1], outK[lo:hi], outP[lo:hi])
	})
	if err == nil {
		err = ctx.Err() // a cancellation during the last stride still counts
	}
	if err != nil {
		return nil, nil, err
	}
	busy.Publish(obsParEffX1000)
	return outK, outP, nil
}

// runTotal checks that every run pairs its keys with payloads and
// returns the runs' total length and the index of the one non-empty run
// (-1 when none or several are).
func runTotal(keys [][]uint64, pay [][]uint32) (total, only int, err error) {
	if len(keys) != len(pay) {
		return 0, 0, fmt.Errorf("mergesort: %d key runs but %d payload runs", len(keys), len(pay))
	}
	only = -1
	for r := range keys {
		if len(keys[r]) != len(pay[r]) {
			return 0, 0, fmt.Errorf("mergesort: run %d has %d keys but %d payloads", r, len(keys[r]), len(pay[r]))
		}
		switch {
		case len(keys[r]) == 0:
		case total == 0:
			only = r
		default:
			only = -1
		}
		total += len(keys[r])
	}
	return total, only, nil
}

// splitRuns returns, for output rank t of the stable merge of runs, the
// cut in every run such that the merge's first t rows are exactly the
// rows below the cuts. Rows below the key at rank t are all in; the ties
// of that key go to runs in index order — the rule the merge itself
// breaks ties by — until the rank is met.
func splitRuns(runs [][]uint64, t int) []int {
	cuts := make([]int, len(runs))
	v := keyAtRank(runs, t+1)
	extra := t
	for r, run := range runs {
		cuts[r] = sort.Search(len(run), func(i int) bool { return run[i] >= v })
		extra -= cuts[r]
	}
	for r, run := range runs {
		take := min(upperBound(run, cuts[r], v)-cuts[r], extra)
		cuts[r] += take
		extra -= take
	}
	return cuts
}

// keyAtRank is the package's one rank selection: the key at output rank
// r−1 of the merged runs — the smallest v with count(≤ v) ≥ r — by
// binary search over the key domain, each probe one binary search per
// run. A rank past the last row selects the largest key.
func keyAtRank(runs [][]uint64, r int) uint64 {
	lo, hi := uint64(0), uint64(0)
	for _, run := range runs {
		if len(run) > 0 {
			hi = max(hi, run[len(run)-1])
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		le := 0
		for _, run := range runs {
			le += upperBound(run, 0, mid)
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

// upperBound returns the first index in [lo, len(run)) whose key is > v.
func upperBound(run []uint64, lo int, v uint64) int {
	return lo + sort.Search(len(run)-lo, func(i int) bool { return run[lo+i] > v })
}

// mergeShare merges the co-partition keys[r][from[r]:to[r]] of every
// run into dk/dp with its payload — exactly len(dk) rows — popping the
// winner of a loser tree over the run heads (leafHeads) and polling the
// context every mergeCheckEvery rows.
func mergeShare(ctx context.Context, keys [][]uint64, pay [][]uint32, from, to []int, dk []uint64, dp []uint32) error {
	head, tag, tree := leafHeads(keys, from, to)
	pos := append([]int(nil), from...)
	kp, k := len(tree), len(keys)
	w := tree[0]
	credit := mergeCheckEvery
	for d := range dk {
		if credit--; credit == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			credit = mergeCheckEvery
		}
		key, p := head[w], pos[w]
		dk[d], dp[d] = key, pay[w][p]
		p++
		pos[w] = p
		if p < to[w] {
			if head[w] = keys[w][p]; head[w] == key {
				continue // an equal successor wins every duel its predecessor did
			}
		} else {
			head[w], tag[w] = ^uint64(0), w+k
		}
		for node := (kp + w) / 2; node >= 1; node /= 2 {
			if s := tree[node]; beats(head, tag, s, w) {
				tree[node], w = w, s
			}
		}
	}
	return nil
}

// leafHeads builds a loser tree over the heads of the co-runs
// keys[r][from[r]:to[r]], padded to a power of two leaves, under the
// strict order (head, tag): a live leaf's tag is its run index and an
// exhausted leaf's lies past every index, its head all ones, so
// exhausted runs and padding lose every duel without a branch of their
// own, and ties go to the lower run. tree[node] is the loser stored at
// node, tree[0] the winner.
func leafHeads(keys [][]uint64, from, to []int) (head []uint64, tag, tree []int) {
	k, kp := len(keys), 1
	for kp < k {
		kp *= 2
	}
	head, tag, tree = make([]uint64, kp), make([]int, kp), make([]int, kp)
	win := make([]int, 2*kp)
	for r := range head {
		head[r], tag[r], win[kp+r] = ^uint64(0), r+k, r
		if r < k && from[r] < to[r] {
			head[r], tag[r] = keys[r][from[r]], r
		}
	}
	for node := kp - 1; node >= 1; node-- {
		a, b := win[2*node], win[2*node+1]
		if beats(head, tag, b, a) {
			a, b = b, a
		}
		win[node], tree[node] = a, b
	}
	tree[0] = win[1]
	return head, tag, tree
}

// beats reports whether leaf a's head precedes leaf b's.
func beats(head []uint64, tag []int, a, b int) bool {
	return head[a] < head[b] || head[a] == head[b] && tag[a] < tag[b]
}
