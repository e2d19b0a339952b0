package mcsort

import (
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Multi-threaded execution (Section 6.4 of the paper; the design and
// its measurements are docs/parallelism.md). Round 0 is one call of
// mergesort's parallel stable radix sort over the whole table. Later
// rounds hand the tied groups to a bounded pool in position-ordered
// batches claimed dynamically; a group that dominates its round — at
// least 1/workers of the round's rows, and at least
// mergesort.ParallelMinRows — is sorted by the same parallel radix
// sort, all workers cooperating.
// Every batch and chunk is a range of a pipeerr.Pass: it polls the
// context first, and a panicking worker surfaces as a
// *pipeerr.PipelineError instead of crashing the process. No function
// here decides the order inside a run of equal keys (Result.Perm).

var (
	obsWorkerSegments = obs.NewCounter("mcsort.worker_segments")
	obsCoopGroupSorts = obs.NewCounter("mcsort.cooperative_group_sorts")
	obsParEffX1000    = obs.NewGauge("mcsort.parallel_efficiency_x1000")
)

// truncateGroups cuts refined group boundaries at the truncation
// target: after limitGroups groups (when > 0), and at the first
// boundary at or past limitRows (when > 0). Cuts land on group
// boundaries only — later rounds still reorder rows inside a tied
// group, so a raw rank cut would drop a nondeterministic subset of a
// straddling group. The final exact rank cut happens after the last
// round, once the order inside the boundary group is fixed.
func truncateGroups(groups []int32, limitRows, limitGroups int) []int32 {
	if limitGroups > 0 && len(groups)-1 > limitGroups {
		groups = groups[:limitGroups+1]
	}
	if limitRows > 0 {
		g := sort.Search(len(groups), func(i int) bool { return int(groups[i]) >= limitRows })
		if g < len(groups)-1 {
			groups = groups[:g+1]
		}
	}
	return groups
}

// groupBatchRows is the claim unit of the later-round group sorts: the
// sortable rows a worker takes between two polls.
// Dynamic claiming keeps the workers within one batch of each other, and
// at this size the shared claim counter and the poll cost nothing.
const groupBatchRows = 1 << 13

// dominantRows is the size from which a group dominates a round of
// rows rows over workers: at least mergesort.ParallelMinRows rows and
// at least 1/workers of the round's. A smaller group sorted by all
// workers loses to the workers each sorting groups of their own.
func dominantRows(rows, workers int) int {
	w := max(workers, 1)
	return max(mergesort.ParallelMinRows, (rows+w-1)/w)
}

// cutGroupBatches classifies the groups a pass is about to visit: nSort
// counts the sortable (≥ 2-row) ones, big lists those of at least
// dominant rows, and the rest are cut in position order into batches —
// batch b covers groups [batches[b], batches[b+1]) — each closed once it
// holds groupBatchRows sortable rows, so a batch stays below
// groupBatchRows plus its largest group.
func cutGroupBatches(ctx context.Context, groups []int32, dominant int) (batches, big []int, nSort int, err error) {
	rows := int(groups[len(groups)-1] - groups[0])
	batches = make([]int, 1, rows/groupBatchRows+2)
	big = make([]int, 0, rows/dominant)
	pending := 0
	for g := 0; g+1 < len(groups); g++ {
		// Group counts approach the row count on high-cardinality
		// rounds, so this scan polls like any O(n) pass.
		if g&(1<<16-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, 0, err
			}
		}
		sz := int(groups[g+1] - groups[g])
		if sz < 2 {
			continue
		}
		nSort++
		if sz >= dominant {
			big = append(big, g)
		} else if pending += sz; pending >= groupBatchRows {
			batches, pending = append(batches, g+1), 0
		}
	}
	if pending > 0 {
		batches = append(batches, len(groups)-1)
	}
	return batches, big, nSort, nil
}

// parallelGroupSort sorts each group [groups[g], groups[g+1]) of keys.
// Groups that dominate the round (cutGroupBatches) go one at a time to
// the parallel radix sort, all workers cooperating
// (for workers < 2 that is the sequential sort); the rest are one pass
// whose ranges are the batches — more of them than workers, claimed in
// order, each polled on entry, and each one call of
// mergesort.SortGroupsContext, which checks its arguments and books its
// counters once for the batch. A batched group sorts under a context
// that cannot be cancelled, whose polls are free: a round can hold 100k+
// tiny groups, and a cancelCtx poll takes a mutex.
func parallelGroupSort(ctx context.Context, bank int, keys []uint64, perm []uint32, groups []int32, workers int, p mergesort.Params, round int) (int, error) {
	faultinject.Fire(faultinject.GroupSort)
	dominant := dominantRows(int(groups[len(groups)-1]-groups[0]), workers)
	batches, big, nSort, err := cutGroupBatches(ctx, groups, dominant)
	if err != nil {
		return 0, err
	}
	obsWorkerSegments.Add(int64(nSort))
	busy := pipeerr.StartBusy(workers)

	for _, g := range big {
		lo, hi := groups[g], groups[g+1]
		obsCoopGroupSorts.Inc()
		if err := mergesort.ParallelSortWithParamsContext(ctx, bank, keys[lo:hi], perm[lo:hi], p, workers); err != nil {
			return nSort, err
		}
	}

	quiet := context.WithoutCancel(ctx)
	pool := pipeerr.Pass{Stage: pipeerr.StageSort, Round: round, Busy: busy}
	err = pool.Ranges(ctx, workers, len(batches)-1, func(_ context.Context, b int) error {
		// One scratch per claimed batch, grown to its largest group: a
		// round can hold 100k+ groups, most of them insertion sorts.
		var scratch mergesort.Scratch
		return mergesort.SortGroupsContext(quiet, bank, keys, perm[:len(keys)], groups[batches[b]:batches[b+1]+1], dominant, p, &scratch)
	})
	if err != nil {
		return nSort, err
	}
	busy.Publish(obsParEffX1000)
	return nSort, nil
}

// parallelPermute computes dst[i] = src[perm[i]] across workers — the
// lookup/reorder pass of each later round (the paper's T_lookup). With
// pay, the carried payload in selection order, it also swaps each oid
// for its payload code in place, perm[i] = pay[perm[i]]: the last
// round's lookup, after which no pass reads an oid. The output is
// chunked on 64-byte lines of perm (16 entries), which hold whole lines
// of dst; reads are random either way.
func parallelPermute(ctx context.Context, dst, src []uint64, perm, pay []uint32, workers, round int) error {
	const align = 16
	pass := pipeerr.Pass{Stage: pipeerr.StagePermute, Round: round, Site: faultinject.Permute, Align: align, MinRows: align * workers}
	return pass.Rows(ctx, len(perm), workers, func(lo, hi int) {
		if pay == nil {
			for i := lo; i < hi; i++ {
				dst[i] = src[perm[i]]
			}
			return
		}
		for i := lo; i < hi; i++ {
			p := perm[i]
			dst[i], perm[i] = src[p], pay[p]
		}
	})
}

// refineGroups splits each group [groups[g], groups[g+1]) at the
// positions where the sorted key changes (the paper's T_scan): one
// sequential read of keys, cut into ranges of positions that run across
// workers from mergesort.ParallelMinRows positions on. A range emits, in
// order, the group starts and the key changes inside it into a
// boundaryList of its own, and the lists are copied into one of exactly
// their length, in range order, so the boundaries are the same at any
// worker count and the scan allocates in proportion to the boundaries
// it finds, not to the positions it reads. Every range polls ctx first
// and fires the GroupScan site.
func refineGroups(ctx context.Context, groups []int32, keys []uint64, workers, round int) ([]int32, error) {
	first, end := int(groups[0]), groups[len(groups)-1]
	pass := pipeerr.Pass{Stage: pipeerr.StageScan, Round: round, Site: faultinject.GroupScan, Align: 8, MinRows: mergesort.ParallelMinRows}
	bounds, w := pass.Split(int(end)-first, workers)
	lists := make([]boundaryList, len(bounds)-1)
	var n atomic.Int64
	err := pass.Ranges(ctx, w, len(lists), func(_ context.Context, i int) error {
		var l boundaryList // filled on the worker's stack: lists[i] shares a line with its neighbours
		refineRange(&l, groups, keys, first+bounds[i], first+bounds[i+1])
		lists[i] = l
		n.Add(int64(l.len()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]int32, 0, n.Load()+1)
	for i := range lists {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = lists[i].appendTo(out)
	}
	return append(out, end), nil
}

// boundaryChunk is the length of a boundaryList's chunks: 16 KiB.
const boundaryChunk = 4096

// boundaryList collects a range's group boundaries in chunks of
// boundaryChunk, so that a list grows without copying what it holds.
type boundaryList struct {
	full [][]int32 // chunks filled, in order
	cur  []int32   // the chunk being filled
}

func (l *boundaryList) add(i int32) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = make([]int32, 0, boundaryChunk)
	}
	l.cur = append(l.cur, i)
}

func (l *boundaryList) len() int { return len(l.full)*boundaryChunk + len(l.cur) }

// appendTo appends the list's boundaries to out, in order.
func (l *boundaryList) appendTo(out []int32) []int32 {
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// refineRange adds to l, in order, every group start in [lo, hi) and
// every position of [lo, hi) inside a group whose key differs from the
// one before it. lo is at least groups[0], so the position before a
// non-start is in the same group.
func refineRange(l *boundaryList, groups []int32, keys []uint64, lo, hi int) {
	last := len(groups) - 1
	g := sort.Search(last, func(g int) bool { return int(groups[g]) >= lo }) // the first start at or after lo
	for i := lo; i < hi; {
		stop := hi
		if g < last && int(groups[g]) < hi {
			stop = int(groups[g])
		}
		for ; i < stop; i++ {
			if keys[i] != keys[i-1] {
				l.add(int32(i))
			}
		}
		if i < hi { // i is group g's start
			l.add(int32(i))
			i++
			g++
		}
	}
}

// payloadBlock is the row count carryPayload decodes at a time: the
// block's codes (8 KiB) stay in L1 while they are narrowed into the
// payload.
const payloadBlock = 1024

// carryPayload sets perm[i] to the code of the payload's selection row
// i (Options.Payload): contiguous plane decodes when the selection is
// every row, a gather through its row list otherwise. Ranges are cut on
// 64-byte lines of perm (16 uint32) and run across workers; a failure
// is the massage stage's, in round round.
func carryPayload(ctx context.Context, perm []uint32, src *massage.Source, workers, round int) error {
	const align = 16
	pass := pipeerr.Pass{Stage: pipeerr.StageMassage, Round: round, Site: faultinject.Payload, Align: align, MinRows: mergesort.ParallelMinRows}
	return pass.Rows(ctx, len(perm), workers, func(lo, hi int) { fillPayload(perm, src, lo, hi) })
}

// fillPayload is carryPayload's range [lo, hi), payloadBlock rows at a
// time.
func fillPayload(perm []uint32, src *massage.Source, lo, hi int) {
	var buf [payloadBlock]uint64
	for blo := lo; blo < hi; blo += payloadBlock {
		codes := buf[:min(payloadBlock, hi-blo)]
		src.Range(codes, blo)
		for j, c := range codes {
			perm[blo+j] = uint32(c)
		}
	}
}
