package mcsort

import (
	"context"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Multi-threaded execution (Section 6.4 of the paper; the design and
// its measurements are docs/parallelism.md). Round 0 is range-partitioned
// by sampled pivots, one independently sorted key range per worker, and
// falls back to mergesort's rank-split parallel sort when the sample
// cannot split the input. Later rounds hand the tied groups to a bounded
// pool in position-ordered batches claimed dynamically; a group big
// enough to dominate a round is sorted cooperatively by all workers.
// Every partition, batch and chunk is a range of a pipeerr.Pass: it
// polls the context first, and a panicking worker surfaces as a
// *pipeerr.PipelineError instead of crashing the process. No function
// here decides the order inside a run of equal keys (Result.Perm).

var (
	obsParallelSorts  = obs.NewCounter("mcsort.parallel_full_sorts")
	obsSkewFallbacks  = obs.NewCounter("mcsort.partition_skew_fallbacks")
	obsPartitionMax   = obs.NewGauge("mcsort.partition_rows_max")
	obsImbalanceX1000 = obs.NewGauge("mcsort.partition_imbalance_x1000")
	obsWorkerSegments = obs.NewCounter("mcsort.worker_segments")
	obsCoopGroupSorts = obs.NewCounter("mcsort.cooperative_group_sorts")
	obsParEffX1000    = obs.NewGauge("mcsort.parallel_efficiency_x1000")
)

// parallelFullSort sorts keys with oids across `workers` goroutines. p
// supplies the phase parameters and the parallel thresholds (routed
// through mergesort.Params so tests can force the parallel paths on
// small inputs). round tags contained failures.
func parallelFullSort(ctx context.Context, bank int, keys []uint64, oids []uint32, workers int, p mergesort.Params, round int) error {
	n := len(keys)
	if workers < 2 || n < p.ParallelThreshold {
		return mergesort.SortWithParamsContext(ctx, bank, keys, oids, p)
	}
	obsParallelSorts.Inc()
	busy := pipeerr.StartBusy(workers)

	// Sample keys and pick workers-1 pivots.
	faultinject.Fire(faultinject.PivotSelect)
	sampleSize := p.PivotSamplePerWorker * workers
	if sampleSize > n {
		sampleSize = n
	}
	sample := make([]uint64, sampleSize)
	stride := n / sampleSize
	for i := range sample {
		sample[i] = keys[i*stride]
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	pivots := make([]uint64, workers-1)
	for i := range pivots {
		pivots[i] = sample[(i+1)*sampleSize/workers]
	}

	// Count, scatter into per-partition regions, then sort in parallel.
	// The scatter searches the pivots again rather than remembering each
	// row's partition: that is log2(workers) compares a row, and a per-row
	// index narrower than int silently wraps once workers outgrow it.
	bucket := func(k uint64) int {
		lo, hi := 0, len(pivots)
		for lo < hi {
			mid := (lo + hi) / 2
			if k < pivots[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	counts := make([]int, workers)
	for i, k := range keys {
		if i&(1<<16-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		counts[bucket(k)]++
	}

	// Skew fallback: when the sampled pivots fail to split the input
	// (most keys equal, so one partition swallows nearly everything),
	// range partitioning would serialize on one worker. The rank-based
	// chunk-sort + cooperative merge balances perfectly regardless of
	// the key distribution, so use it instead.
	maxPart := 0
	for _, c := range counts {
		if c > maxPart {
			maxPart = c
		}
	}
	if maxPart*workers > 2*n {
		obsSkewFallbacks.Inc()
		return mergesort.ParallelSortWithParamsContext(ctx, bank, keys, oids, p, workers)
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	offsets := make([]int, workers+1)
	for i := 0; i < workers; i++ {
		offsets[i+1] = offsets[i] + counts[i]
	}
	scratchK := make([]uint64, n)
	scratchO := make([]uint32, n)
	cursor := append([]int(nil), offsets[:workers]...)
	for i := 0; i < n; i++ {
		if i&(1<<16-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b := bucket(keys[i])
		scratchK[cursor[b]] = keys[i]
		scratchO[cursor[b]] = oids[i]
		cursor[b]++
	}

	obsPartitionMax.SetMax(int64(maxPart))
	// Imbalance: busiest partition relative to the ideal n/workers
	// share, ×1000 (1000 = perfectly balanced).
	obsImbalanceX1000.Set(int64(maxPart) * int64(workers) * 1000 / int64(n))

	// The context-aware sort polls between its merge passes, so a
	// cancellation unwinds a partition within one O(n) sweep rather than
	// after its whole sort.
	sorts := pipeerr.Pass{Stage: pipeerr.StageSort, Round: round, Busy: busy}
	err := sorts.Ranges(ctx, workers, workers, func(gctx context.Context, w int) error {
		k, o := scratchK[offsets[w]:offsets[w+1]], scratchO[offsets[w]:offsets[w+1]]
		if len(k) < 2 {
			return nil
		}
		return mergesort.SortWithParamsContext(gctx, bank, k, o, p)
	})
	if err != nil {
		return err
	}
	copy(keys, scratchK)
	copy(oids, scratchO)
	busy.Publish(obsParEffX1000)
	return nil
}

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

// groupPollRows is the group size from which a later-round group's own
// sort must be cancellable. Smaller groups sort under a context that
// cannot be cancelled, whose entry poll is free: a round can hold 100k+
// tiny groups, and a cancelCtx poll takes a mutex.
const groupPollRows = 1 << 16

// groupBatchRows is the claim unit of the later-round group sorts and of
// the tie-order pass: the sortable rows a worker takes between two polls.
// Dynamic claiming keeps the workers within one batch of each other, and
// at this size the shared claim counter and the poll cost nothing.
const groupBatchRows = 1 << 13

// cutGroupBatches classifies the groups a pass is about to visit: nSort
// counts the sortable (≥ 2-row) ones, big lists those of at least
// coopRows rows, and the rest are cut in position order into batches —
// batch b covers groups [batches[b], batches[b+1]) — each closed once it
// holds groupBatchRows sortable rows, so a batch stays below
// groupBatchRows plus its largest group.
func cutGroupBatches(ctx context.Context, groups []int32, coopRows int) (batches, big []int, nSort int, err error) {
	rows := int(groups[len(groups)-1] - groups[0])
	batches = make([]int, 1, rows/groupBatchRows+2)
	big = make([]int, 0, rows/coopRows)
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
		if sz >= coopRows {
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
// Groups large enough to starve the pool (≥ p.ParallelThreshold) go one
// at a time to the rank-split parallel sort, all workers cooperating
// (for workers < 2 that is the sequential sort); the rest are one pass
// whose ranges are the batches — more of them than workers, claimed in
// order. The context also reaches the sort of any batched group of at
// least groupPollRows rows, so a cancelled round returns within one
// batch or one merge pass.
func parallelGroupSort(ctx context.Context, bank int, keys []uint64, perm []uint32, groups []int32, workers int, p mergesort.Params, round int) (int, error) {
	faultinject.Fire(faultinject.GroupSort)
	batches, big, nSort, err := cutGroupBatches(ctx, groups, p.ParallelThreshold)
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
	err = pool.Ranges(ctx, workers, len(batches)-1, func(wctx context.Context, b int) error {
		// One scratch per claimed batch, grown to its largest group: a
		// round can hold 100k+ groups.
		var scratch mergesort.Scratch
		for g := batches[b]; g < batches[b+1]; g++ {
			lo, hi := int(groups[g]), int(groups[g+1])
			if hi-lo < 2 || hi-lo >= p.ParallelThreshold {
				continue
			}
			sctx := quiet
			if hi-lo >= groupPollRows {
				sctx = wctx
			}
			if err := mergesort.SortScratchContext(sctx, bank, keys[lo:hi], perm[lo:hi], p, &scratch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nSort, err
	}
	busy.Publish(obsParEffX1000)
	return nSort, nil
}

// parallelPermute computes dst[i] = src[perm[i]] across workers — the
// lookup/reorder pass of each later round (the paper's T_lookup). The
// output is chunked on cache-line boundaries (8 uint64 per line); reads
// are random either way.
func parallelPermute(ctx context.Context, dst, src []uint64, perm []uint32, workers, round int) error {
	const align = 8
	pass := pipeerr.Pass{Stage: pipeerr.StagePermute, Round: round, Site: faultinject.Permute, Align: align, MinRows: align * workers}
	return pass.Rows(ctx, len(perm), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = src[perm[i]]
		}
	})
}
