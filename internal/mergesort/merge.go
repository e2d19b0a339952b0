package mergesort

import (
	"context"
	"math/bits"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// The one merge of sorted runs of words, under the coordinator's
// cross-shard gather (internal/shard). It reads the runs in place:
// nothing is concatenated, packed or offset-value coded, and no payload
// travels with a word — a caller that needs one, or a stable order,
// ends every word in it (the coordinator ends each in its entry's
// global index, which makes the words distinct). Across workers the
// output is cut into equal rank shares, one selection (SplitRuns)
// resolves each share boundary to a cut in every run, and each share
// merges its co-partitions one run at a time with a branch-free two-way
// merge — balanced by output rank whatever the key skew.
// Equal words are indistinguishable, so the output is byte-identical
// at every worker count.

var (
	obsParMerges      = obs.NewCounter("mergesort.parallel_merges")
	obsParMergeElems  = obs.NewCounter("mergesort.parallel_merge_elements")
	obsParSelectProbe = obs.NewCounter("mergesort.parallel_select_probes")
)

// mergeCheckEvery is how many rows a rank share merges between context
// polls: frequent enough that cancellation lands well inside a share,
// rare enough that the poll is free.
const mergeCheckEvery = 1 << 14

// MergeRunsContext merges the ascending runs of words into one new
// ascending run. It stops after exactly min(limit, total) words; limit
// ≤ 0 means all of them. A single non-empty run comes back uncopied,
// cut to the limit. At workers ≥ 2 the rank shares merge concurrently,
// one pipeerr.Pass range each (site faultinject.LoserMerge), and the
// output is byte-identical at every worker count. The context is polled
// on entry, at every share boundary and every mergeCheckEvery rows
// inside a share; on error no rows are returned, and a share panic
// surfaces as a *pipeerr.PipelineError with stage "merge". The runs are
// never written.
func MergeRunsContext(ctx context.Context, runs [][]uint64, limit, workers int) ([]uint64, error) {
	total, only := runTotal(runs)
	n := total
	if limit > 0 && limit < n {
		n = limit
	}
	switch {
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case n == 0:
		return nil, nil
	case only >= 0:
		return runs[only][:n], nil
	}
	obsParMerges.Inc()
	obsParMergeElems.Add(int64(n))

	targets := pipeerr.Cut(n, workers, 1)
	cuts := make([][]int, len(targets))
	cuts[0] = make([]int, len(runs))
	for i := 1; i < len(targets); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cuts[i] = SplitRuns(runs, targets[i])
	}

	out := make([]uint64, n)
	busy := pipeerr.StartBusy(workers)
	shares := pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1, Site: faultinject.LoserMerge, Busy: busy}
	err := shares.Ranges(ctx, workers, len(targets)-1, func(gctx context.Context, w int) error {
		return mergeShare(gctx, runs, cuts[w], cuts[w+1], out[targets[w]:targets[w+1]])
	})
	if err == nil {
		err = ctx.Err() // a cancellation during the last stride still counts
	}
	if err != nil {
		return nil, err
	}
	busy.Publish(obsParEffX1000)
	return out, nil
}

// runTotal returns the runs' total length and the index of the one
// non-empty run (-1 when none or several are).
func runTotal(runs [][]uint64) (total, only int) {
	only = -1
	for r, run := range runs {
		switch {
		case len(run) == 0:
		case total == 0:
			only = r
		default:
			only = -1
		}
		total += len(run)
	}
	return total, only
}

// SplitRuns returns, for output rank t of the merge of the ascending
// runs, the cut in every run such that the merge's first t rows are
// exactly the rows below the cuts. Rows below the key at rank t are all
// in; the ties of that key go to runs in index order until the rank is
// met — the rule a merge stable by run index breaks ties by, so the
// paper kernel's merge of (key, oid) pairs shares this selection.
func SplitRuns(runs [][]uint64, t int) []int {
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

// mergeShare merges the co-partitions runs[r][from[r]:to[r]] into dst
// — exactly len(dst) rows — one run at a time: the merge of the first
// p+1 runs is written to the tail of dst that the later runs leave
// free, where the next merge reads it while writing ahead of it (it
// writes row i+j only after reading row i of the merged runs, which
// sits len(next run) rows later), so no scratch is needed. A two-way
// merge is branch-free, and for the few runs a merge sees (one per
// shard) cheaper per pass than a loser tree's walk is per row.
func mergeShare(ctx context.Context, runs [][]uint64, from, to []int, dst []uint64) error {
	parts := coPartitions(runs, from, to)
	if len(parts) == 1 {
		copy(dst, parts[0]) // one co-partition: the share itself
	}
	if len(parts) < 2 {
		return nil
	}
	acc, rest := parts[0], len(dst)-len(parts[0])
	for _, run := range parts[1:] {
		rest -= len(run)
		out := dst[rest : rest+len(acc)+len(run)]
		if err := merge2(ctx, acc, run, out); err != nil {
			return err
		}
		acc = out
	}
	return nil
}

// coPartitions returns the non-empty co-partitions runs[r][from[r]:to[r]].
func coPartitions(runs [][]uint64, from, to []int) [][]uint64 {
	parts := make([][]uint64, 0, len(runs))
	for r, run := range runs {
		if from[r] < to[r] {
			parts = append(parts, run[from[r]:to[r]])
		}
	}
	return parts
}

// merge2 merges the ascending a and b into dst, polling the context
// every mergeCheckEvery rows. The borrow of one subtraction picks the
// smaller head and advances its run, without a branch.
func merge2(ctx context.Context, a, b, dst []uint64) error {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		if err := ctx.Err(); err != nil {
			return err
		}
		for end := min(d+mergeCheckEvery, len(dst)); d < end && i < len(a) && j < len(b); d++ {
			x, y := a[i], b[j]
			_, c := bits.Sub64(y, x, 0) // 1 when b's head is the smaller
			dst[d] = x ^ (x^y)&-c
			i, j = i+int(c^1), j+int(c)
		}
	}
	d += copy(dst[d:], a[i:])
	copy(dst[d:], b[j:])
	return nil
}
