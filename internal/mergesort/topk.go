package mergesort

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Top-K partial sorting, the LIMIT/OFFSET path (docs/topk.md): a query
// that consumes the first R sorted rows needs the other N−R eliminated,
// not ordered. TopKContext finds the cut with a radix select — one
// digit's histogram names the bucket that holds rank R — compacts the
// rows at or below it, sorts them once and cuts them at the rank. The
// cut is tie-extended, every key ≤ the R-th smallest, so the survivor
// set is defined by key values alone and the same at every worker count
// (a raw rank cut would split a tie at a chunk-dependent point); mcsort
// slices the exact prefix after its later rounds. Every pass is a
// pipeerr.Pass whose ranges fire faultinject.ChunkSort.

var (
	obsTopKSorts     = obs.NewCounter("mergesort.topk_sorts")
	obsTopKSurvivors = obs.NewCounter("mergesort.topk_survivors")
	obsTopKFiltered  = obs.NewCounter("mergesort.topk_filtered_out")
)

// SelectDigitBits is the width of the digit a select pass counts, 4 KB
// of counters per range: 10 bits resolve a 20-bit zipf-skewed key in two
// passes where 8 need three, and 12 are no faster (EXPERIMENTS.md).
const SelectDigitBits = 10

// SelectRefineShare: a boundary bucket of more than n/SelectRefineShare
// rows is counted again on the next digit, one more pass over n keys.
// Shares 8, 16 and 32 time the same within noise (EXPERIMENTS.md).
const SelectRefineShare = 16

// TopKContext partially sorts keys (each value < 2^bank) with their
// oids: the first m come back in ascending key order, ties in input
// order, where m counts every key ≤ the limit-th smallest. A limit ≥ n,
// or n < SmallRunCutoff, is the full sort with m = n. keys[m:] are in
// unspecified order; limit must be ≥ 1. On cancellation or a contained
// worker panic it returns 0 and keys/oids in unspecified (memory-safe)
// order.
func TopKContext(ctx context.Context, bank int, keys []uint64, oids []uint32, limit int, p Params, workers int) (int, error) {
	if err := checkArgs(bank, keys, oids); err != nil {
		return 0, err
	}
	if limit < 1 {
		return 0, fmt.Errorf("mergesort: top-K limit %d, must be >= 1", limit)
	}
	n := len(keys)
	if limit >= n || n < SmallRunCutoff {
		if err := ParallelSortWithParamsContext(ctx, bank, keys, oids, p, workers); err != nil {
			return 0, err
		}
		return n, nil
	}
	obsTopKSorts.Inc()

	// BlockRows-row ranges, or one per worker (of at least minChunkRows
	// rows) when the input is parallel.
	parts := (n + pipeerr.BlockRows - 1) / pipeerr.BlockRows
	if workers >= 2 && n >= ParallelMinRows {
		parts = max(parts, min(workers, n/minChunkRows))
	} else {
		workers = 1
	}
	bounds := pipeerr.Cut(n, parts, 1)
	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort}
	top, kept, err := radixSelect(ctx, bank, keys, bounds, limit, workers)
	if err != nil {
		return 0, err
	}

	// Compact the kept rows (none move when all are kept) to each range's
	// front, then the ranges forward (pos never passes lo): input order,
	// so the stable sort leaves ties where the sequential path would.
	if kept < n {
		surv := make([]int, len(bounds)-1)
		err = chunks.Ranges(ctx, workers, len(surv), func(_ context.Context, c int) error {
			lo, hi := bounds[c], bounds[c+1]
			surv[c] = compactAtMost(keys[lo:hi], oids[lo:hi], top)
			return nil
		})
		if err != nil {
			return 0, err
		}
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
	}
	obsTopKFiltered.Add(int64(n - kept))
	if err := ParallelSortWithParamsContext(ctx, bank, keys[:kept], oids[:kept], p, workers); err != nil {
		return 0, err
	}

	// The tie-extended cut. The survivors, every key ≤ top and at least
	// limit of them, hold every copy of the limit-th smallest key.
	pivot := keys[limit-1]
	m := limit + sort.Search(kept-limit, func(i int) bool { return keys[limit+i] > pivot })
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	obsTopKSurvivors.Add(int64(m))
	return m, nil
}

// selectCount is one range's share of a select pass: its candidates'
// histogram on the counted digit, and their OR and AND.
type selectCount struct {
	hist    [1 << SelectDigitBits]uint32
	or, and uint64
}

// radixSelect returns top and kept, the count of keys ≤ top: at least
// limit, every key ≤ the limit-th smallest among them. It narrows a
// candidate range [lo, top] of key values, below rows under lo, from the
// whole bank: a pass counts the candidates on the digit at shift, and
// the bucket that holds rank limit becomes the range, until that bucket
// is one value, small (SelectRefineShare), or all equal keys — a heavy
// tie survives whole. A digit the candidates all share (their OR and AND
// tell) is counted again at their top live digit.
func radixSelect(ctx context.Context, bank int, keys []uint64, bounds []int, limit, workers int) (uint64, int, error) {
	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort}
	counts := make([]selectCount, len(bounds)-1)
	lo, top, below := uint64(0), ^uint64(0)>>uint(64-bank), 0
	shift := uint(bank - SelectDigitBits)
	for {
		err := chunks.Ranges(ctx, workers, len(counts), func(_ context.Context, c int) error {
			counts[c].count(keys[bounds[c]:bounds[c+1]], lo, top, shift)
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		var hist [1 << SelectDigitBits]int
		or, and := uint64(0), ^uint64(0)
		for c := range counts {
			for v, k := range counts[c].hist {
				hist[v] += int(k)
			}
			or, and = or|counts[c].or, and&counts[c].and
		}
		if live := bits.Len64(or ^ and); or != and && live <= int(shift) {
			shift = uint(max(live-SelectDigitBits, 0))
			continue
		}
		b := 0
		for below+hist[b] < limit {
			below += hist[b]
			b++
		}
		// and holds the bits above the digit, which every candidate shares.
		lo = and&^(^uint64(0)>>(64-SelectDigitBits-shift)) | uint64(b)<<shift
		top = lo | (1<<shift - 1)
		if shift == 0 || or == and || hist[b] <= len(keys)/SelectRefineShare {
			return top, below + hist[b], nil
		}
		shift = uint(max(int(shift)-SelectDigitBits, 0))
	}
}

// count fills s from the keys in [lo, top]: their histogram on the
// digit at shift, and their OR and AND.
func (s *selectCount) count(keys []uint64, lo, top uint64, shift uint) {
	s.hist = [1 << SelectDigitBits]uint32{}
	or, and, span := uint64(0), ^uint64(0), top-lo
	for _, k := range keys {
		if k-lo <= span {
			s.hist[(k>>shift)%(1<<SelectDigitBits)]++
			or |= k
			and &= k
		}
	}
	s.or, s.and = or, and
}

// compactAtMost moves the pairs whose key is ≤ top to the front in input
// order and counts them; every pair is written, so no branch mispredicts.
func compactAtMost(keys []uint64, oids []uint32, top uint64) int {
	oids = oids[:len(keys)]
	w := 0
	for i, k := range keys {
		keys[w], oids[w] = k, oids[i]
		if k <= top {
			w++
		}
	}
	return w
}
