package mergesort

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Top-K partial sorting: the LIMIT/OFFSET execution path. A query that
// only consumes the first R rows of the sorted output does not need the
// other N−R rows in order — it needs them *eliminated*. TopKContext
// filters each worker chunk through a bounded max-heap (the classic
// top-K filter), so one parallel sort of the compacted survivors is all
// that runs, and a binary search cuts its output at the rank.
//
// Truncation contract (the determinism keystone, docs/topk.md): the
// cut is *tie-extended* — the returned prefix holds every element whose
// key is ≤ the R-th smallest key, so the survivor set is defined by key
// values alone and is byte-identical for every worker count. The
// returned count m is therefore ≥ limit, and the caller that needs an
// exact rank-R prefix (internal/mcsort) sorts the later rounds and
// slices afterwards. Cutting at the raw rank instead would split a tied
// group at a chunk-dependent point and leak the worker count into the
// result.
//
// Robustness: TopKContext polls the context inside the heap filter
// (every topkCheckEvery elements) and at chunk and pass boundaries;
// worker panics surface as *pipeerr.PipelineError. On any error the
// keys/oids are in unspecified (but memory-safe) order.

var (
	obsTopKSorts     = obs.NewCounter("mergesort.topk_sorts")
	obsTopKSurvivors = obs.NewCounter("mergesort.topk_survivors")
	obsTopKFiltered  = obs.NewCounter("mergesort.topk_filtered_out")
)

// topkCheckEvery is how many elements the heap filter and partition
// scans process between context polls — the same cadence as the merge
// strides, frequent enough that cancellation lands inside a chunk.
const topkCheckEvery = 1 << 16

// TopKContext partially sorts keys (each value < 2^bank) with their
// oids: on return the first m elements are the m smallest in ascending
// key order (ties in input order, as ParallelSortWithParamsContext
// leaves them), where m is at least the tie-extended cut at rank limit —
// every element whose key is ≤ the limit-th smallest key is among the
// first m. A near-full limit (or an input below smallRunCutoff, which
// the insertion sort handles whole) degrades to the full sort with
// m = n. keys[m:] are
// in unspecified order. limit must be ≥ 1. On cancellation or a
// contained worker panic the returned count is 0 and keys/oids are in
// unspecified order.
func TopKContext(ctx context.Context, bank int, keys []uint64, oids []uint32, limit int, p Params, workers int) (int, error) {
	if err := checkArgs(bank, keys, oids); err != nil {
		return 0, err
	}
	if limit < 1 {
		return 0, fmt.Errorf("mergesort: top-K limit %d, must be >= 1", limit)
	}
	n := len(keys)
	p = p.resolved()
	// The heap filter pays off only when it discards most of the input:
	// near-full limits sort everything anyway, so route them through the
	// plain parallel sort (whose m = n prefix is trivially tie-extended).
	if limit*2 >= n || n < smallRunCutoff {
		if err := ParallelSortWithParamsContext(ctx, bank, keys, oids, p, workers); err != nil {
			return 0, err
		}
		return n, nil
	}
	obsTopKSorts.Inc()

	// Run generation: each chunk keeps every element ≤ its chunk-local
	// rank-limit pivot. The global pivot is ≤ every chunk pivot (an order
	// statistic can only move down when the pool grows), so each chunk's
	// survivor set contains all of its elements that survive globally —
	// no chunk can discard a global survivor. Below the parallel
	// threshold the one chunk's pivot is the global pivot.
	chunks := 1
	if workers >= 2 && n >= p.ParallelThreshold {
		chunks = workers
	}
	bounds := pipeerr.Cut(n, chunks, 1)
	surv := make([]int, len(bounds)-1)
	filter := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort}
	err := filter.Ranges(ctx, chunks, len(surv), func(gctx context.Context, c int) error {
		var err error
		surv[c], err = topKFilterChunk(gctx, keys, oids, bounds[c], bounds[c+1], limit)
		return err
	})
	if err != nil {
		return 0, err
	}

	// Compact the survivors to the front in chunk order (pos never
	// passes lo, so the forward copies cannot clobber unread survivors):
	// they keep their input order, so the stable sort that follows leaves
	// them where the sequential path would.
	pos := 0
	for c, s := range surv {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if lo := bounds[c]; pos != lo {
			copy(keys[pos:pos+s], keys[lo:lo+s])
			copy(oids[pos:pos+s], oids[lo:lo+s])
		}
		pos += s
	}
	if err := ParallelSortWithParamsContext(ctx, bank, keys[:pos], oids[:pos], p, workers); err != nil {
		return 0, err
	}

	// The tie-extended cut: every survivor whose key is ≤ the limit-th
	// smallest. Each chunk kept at least min(limit, its rows), so pos ≥
	// limit.
	pivot := keys[limit-1]
	m := limit + sort.Search(pos-limit, func(i int) bool { return keys[limit+i] > pivot })
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	obsTopKSurvivors.Add(int64(m))
	return m, nil
}

// topKFilterChunk finds the chunk-local key at rank limit with a
// bounded max-heap over keys alone, then compacts every element whose
// key is ≤ that pivot to the chunk front, in input order — the order
// the stable sort that follows keeps for ties. It returns the survivor
// count s; chunk elements beyond s are garbage. A chunk smaller than
// limit keeps everything. Both scans poll the context every
// topkCheckEvery elements, the bounded-heap loop shape the ctxpoll
// analyzer accepts.
func topKFilterChunk(ctx context.Context, keys []uint64, oids []uint32, lo, hi, limit int) (int, error) {
	n := hi - lo
	if n <= limit {
		return n, ctx.Err()
	}
	heap := make([]uint64, limit)
	copy(heap, keys[lo:lo+limit])
	for i := limit/2 - 1; i >= 0; i-- {
		siftDownMax(heap, i)
	}
	credit := topkCheckEvery
	for i := lo + limit; i < hi; i++ {
		if credit--; credit <= 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			credit = topkCheckEvery
		}
		if k := keys[i]; k < heap[0] {
			heap[0] = k
			siftDownMax(heap, 0)
		}
	}
	// heap[0] is the limit-th smallest chunk key: the heap holds a
	// multiset of limit smallest elements (an incoming tie of the max
	// is interchangeable with the stored copy), so its max is the
	// rank-limit order statistic exactly, ties or not.
	pivot := heap[0]
	w := lo
	credit = topkCheckEvery
	for i := lo; i < hi; i++ {
		if credit--; credit <= 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			credit = topkCheckEvery
		}
		if keys[i] <= pivot {
			keys[w], oids[w] = keys[i], oids[i]
			w++
		}
	}
	obsTopKFiltered.Add(int64(hi - w))
	return w - lo, nil
}

// siftDownMax restores the max-heap property below node i.
func siftDownMax(h []uint64, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r] > h[l] {
			big = r
		}
		if h[big] <= h[i] {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
