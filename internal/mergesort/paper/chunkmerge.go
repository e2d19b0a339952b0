package paper

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/mergesort"
	"repro/internal/pipeerr"
)

// mergeChunks is the parallel sort's chunk merge: it merges the sorted
// chunks keys[r] with their oids pay[r] into one new pair, stable by
// chunk index — equal keys come out in chunk order, and within a chunk
// in input order. The output is cut into equal rank shares, one
// mergesort.SplitRuns selection resolves each share boundary to a cut
// in every chunk (its tie rule is this merge's), and the shares merge
// concurrently, one pipeerr.Pass range each (site
// faultinject.LoserMerge), each with a loser tree over the chunk heads;
// the output is byte-identical at every worker count. The context is
// polled at every share boundary and every mergeCheckEvery rows inside
// a share. The chunks are never written.
func mergeChunks(ctx context.Context, keys [][]uint64, pay [][]uint32, workers int) ([]uint64, []uint32, error) {
	n := 0
	for _, run := range keys {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		n += len(run)
	}
	targets := pipeerr.Cut(n, workers, 1)
	cuts := make([][]int, len(targets))
	cuts[0] = make([]int, len(keys))
	for i := 1; i < len(targets); i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cuts[i] = mergesort.SplitRuns(keys, targets[i])
	}
	outK, outP := make([]uint64, n), make([]uint32, n)
	shares := pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1, Site: faultinject.LoserMerge}
	err := shares.Ranges(ctx, workers, len(targets)-1, func(gctx context.Context, w int) error {
		lo, hi := targets[w], targets[w+1]
		return mergeShare(gctx, keys, pay, cuts[w], cuts[w+1], outK[lo:hi], outP[lo:hi])
	})
	if err == nil {
		err = ctx.Err() // a cancellation during the last stride still counts
	}
	if err != nil {
		return nil, nil, err
	}
	return outK, outP, nil
}

// mergeShare merges the co-partition keys[r][from[r]:to[r]] of every
// chunk into dk/dp with its payload — exactly len(dk) rows — popping the
// winner of a loser tree over the chunk heads (leafHeads) and polling
// the context every mergeCheckEvery rows.
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

// leafHeads builds a loser tree over the heads of the co-chunks
// keys[r][from[r]:to[r]], padded to a power of two leaves, under the
// strict order (head, tag): a live leaf's tag is its chunk index and an
// exhausted leaf's lies past every index, its head all ones, so
// exhausted chunks and padding lose every duel without a branch of
// their own, and ties go to the lower chunk. tree[node] is the loser
// stored at node, tree[0] the winner.
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
