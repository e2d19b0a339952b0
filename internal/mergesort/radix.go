package mergesort

// The production sort kernel: a stable LSD radix sort of (key, oid)
// pairs over 8-bit digits. The paper names radix sorting as future work
// (Section 7: "code massaging would allow a careful choice of the radix
// size when radix-sorting multiple columns"); in scalar Go it beats the
// three-phase SWAR merge-sort in every (bank, n, duplicates) cell of
// BenchmarkKernelBakeoff (EXPERIMENTS.md), so it sorts every run that
// serves a query, and the paper kernel stays what the figures and the
// cost model measure (internal/mergesort/paper).
//
// One counting pre-pass fills the histograms of all bank/8 digits, so a
// digit on which every key agrees is known before any data moves and
// its scatter is skipped: an 18-bit round key in a 32-bit bank costs
// three scatters, not four — the round's real width sets the cost, not
// the bank. Stability makes the kernel usable round by round and leaves
// every run of equal keys in input order, which is oid order wherever
// mcsort calls it.
//
// Across workers (parallelRadixSort) it is the same kernel over by-row
// chunks, so it is stable, byte-identical to the sequential sort, and
// balanced whatever the key skew: the paper's range partitioning
// (Section 6.4) needs pivots, and a fallback where skew defeats them.

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

var (
	obsRadixSorts  = obs.NewCounter("mergesort.radix_sorts")
	obsRadixPasses = obs.NewCounter("mergesort.radix_passes")
	obsParSorts    = obs.NewCounter("mergesort.parallel_sorts")
	obsParWorkers  = obs.NewGauge("mergesort.parallel_workers")
	obsParEffX1000 = obs.NewGauge("mergesort.parallel_efficiency_x1000")
)

// radixBuckets is the bucket count of one 8-bit digit: 256 uint32
// counters per histogram, so even the eight histograms of a 64-bit bank
// stay L1-resident.
const radixBuckets = 1 << 8

// minChunkRows bounds the parallel radix sort's chunks from below,
// whatever the worker count: a chunk costs bank/8 histograms and
// radixBuckets prefix steps per live digit, a sixteenth of its rows'
// work at 16 rows per bucket. Without it the server's 1,024 workers would
// cut a 16,384-row group into 16-row chunks, 8 MB of histograms.
const minChunkRows = 16 * radixBuckets

// radixHist holds the histograms of every digit of one chunk.
type radixHist = [8][radixBuckets]uint32

// Scratch is the working memory of the production kernel: the two
// (key, oid) pairs its scatter passes ping-pong between. A goroutine
// that sorts many runs in a row (mcsort's group batches) hands every
// call the same Scratch and allocates once per batch instead of once per
// group; it grows to the largest run it has served. The zero value is
// ready to use. A Scratch must not be shared between concurrent sorts.
// A Params.Sort hook ignores it.
type Scratch struct {
	k [2][]uint64
	o [2][]uint32
}

// pair returns scratch pair i with room for n elements.
func (s *Scratch) pair(i, n int) ([]uint64, []uint32) {
	if cap(s.k[i]) < n {
		s.k[i] = make([]uint64, n)
		s.o[i] = make([]uint32, n)
	}
	return s.k[i][:n], s.o[i][:n]
}

// passDst returns where scatter pass i of passes writes: pass i reads
// what pass i-1 wrote, from the caller's keys/oids through the two
// scratch pairs back to them, and a single pass scatters into scratch
// for copyBack, so only a sort's last step writes the caller's slices.
func (s *Scratch) passDst(i, passes int, keys []uint64, oids []uint32) ([]uint64, []uint32) {
	if i < passes-1 || passes == 1 {
		return s.pair(i&1, len(keys))
	}
	return keys, oids
}

// copyBack ends a sort: after one pass, and one more poll, it copies
// scratch pair 0 into keys/oids.
func (s *Scratch) copyBack(ctx context.Context, passes int, keys []uint64, oids []uint32) error {
	if passes != 1 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k, o := s.pair(0, len(keys))
	copy(keys, k)
	copy(oids, o)
	return nil
}

// radixSort sorts keys (each value < 2^bank) with their oids in place,
// stably: the one-chunk case of the kernel. len(keys) == len(oids) and
// the poll before the counting pre-pass are the entry point's
// (SortScratchContext); the context is polled again before each scatter
// and the copy-back, so every O(n) pass follows a poll, and every pass
// but the last writes scratch only (passDst): on cancellation radixSort
// returns ctx.Err() with keys and oids exactly as passed in.
func radixSort(ctx context.Context, bank int, keys []uint64, oids []uint32, s *Scratch) error {
	var hist [1]radixHist
	radixCount(keys, bank/8, &hist[0])
	live, passes := liveDigits(hist[:], bank/8, keys[0], len(keys))
	srcK, srcO := keys, oids
	for i, d := range live[:passes] {
		if err := ctx.Err(); err != nil {
			return err
		}
		dstK, dstO := s.passDst(i, passes, keys, oids)
		radixOffsets(hist[:], d)
		radixScatter(srcK, srcO, dstK, dstO, &hist[0][d], 8*uint(d))
		srcK, srcO = dstK, dstO
	}
	return s.copyBack(ctx, passes, keys, oids)
}

// ParallelSortWithParamsContext sorts keys (each value < 2^bank) with
// their oids in place across `workers` goroutines (Section 6.4 of the
// paper): by-row chunks with parallelRadixSort, whose output is
// byte-identical to SortWithParamsContext's. Inputs below
// p.ParallelThreshold or two chunks, or workers < 2, take the sequential
// path; a p.Sort hook gets every input from the threshold on, with the
// worker count. A cancelled context aborts between passes and chunks; a
// worker panic surfaces as a *pipeerr.PipelineError with stage "sort"
// and cancels its siblings. On any error keys/oids are in unspecified
// (but memory-safe) order, and callers discard them (docs/robustness.md).
func ParallelSortWithParamsContext(ctx context.Context, bank int, keys []uint64, oids []uint32, p Params, workers int) error {
	if err := checkArgs(bank, keys, oids); err != nil {
		return err
	}
	n := len(keys)
	p = p.resolved()
	if workers < 2 || n < p.ParallelThreshold {
		return SortWithParamsContext(ctx, bank, keys, oids, p)
	}
	if p.Sort != nil {
		return p.Sort(ctx, bank, keys, oids, workers)
	}
	bounds := radixChunks(n, workers)
	if len(bounds) < 3 {
		return SortWithParamsContext(ctx, bank, keys, oids, p)
	}
	obsParSorts.Inc()
	obsParWorkers.Set(int64(workers))
	busy := pipeerr.StartBusy(workers)
	if err := parallelRadixSort(ctx, bank, keys, oids, bounds, workers, busy); err != nil {
		return err
	}
	busy.Publish(obsParEffX1000)
	return ctx.Err()
}

// radixChunks cuts n rows into the chunks of the parallel radix sort:
// one per worker, but never more than n/minChunkRows. Fewer than two
// chunks means the sequential kernel sorts the rows.
func radixChunks(n, workers int) []int {
	return pipeerr.Cut(n, min(workers, n/minChunkRows), 1)
}

// parallelRadixSort sorts keys with their oids in place, stably, over
// the chunks of bounds: every chunk counts all digits in one pre-pass,
// the summed counts name the live digits, and per live digit the chunks
// scatter concurrently from radixOffsets. Each scatter moves rows between
// chunks, so each later digit is recounted on the layout it reads. Every
// range polls and fires faultinject.ChunkSort; on error keys and oids
// are in unspecified order.
func parallelRadixSort(ctx context.Context, bank int, keys []uint64, oids []uint32, bounds []int, workers int, busy *pipeerr.Busy) error {
	digits := bank / 8
	hists := make([]radixHist, len(bounds)-1)
	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort, Busy: busy}
	err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
		radixCount(keys[bounds[c]:bounds[c+1]], digits, &hists[c])
		return nil
	})
	if err != nil {
		return err
	}
	live, passes := liveDigits(hists, digits, keys[0], len(keys))
	var s Scratch
	srcK, srcO := keys, oids
	for i, d := range live[:passes] {
		shift := 8 * uint(d)
		if i > 0 {
			err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
				radixCountDigit(srcK[bounds[c]:bounds[c+1]], shift, &hists[c][d])
				return nil
			})
			if err != nil {
				return err
			}
		}
		radixOffsets(hists, d)
		dstK, dstO := s.passDst(i, passes, keys, oids)
		err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
			lo, hi := bounds[c], bounds[c+1]
			radixScatter(srcK[lo:hi], srcO[lo:hi], dstK, dstO, &hists[c][d], shift)
			return nil
		})
		if err != nil {
			return err
		}
		srcK, srcO = dstK, dstO
	}
	return s.copyBack(ctx, passes, keys, oids)
}

// radixCount is the counting pre-pass: one sweep over keys that fills
// the histogram of every digit of the bank.
func radixCount(keys []uint64, digits int, hist *radixHist) {
	switch digits {
	case 2:
		for _, k := range keys {
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
		}
	case 4:
		for _, k := range keys {
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
			hist[2][uint8(k>>16)]++
			hist[3][uint8(k>>24)]++
		}
	default:
		for _, k := range keys {
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
			hist[2][uint8(k>>16)]++
			hist[3][uint8(k>>24)]++
			hist[4][uint8(k>>32)]++
			hist[5][uint8(k>>40)]++
			hist[6][uint8(k>>48)]++
			hist[7][uint8(k>>56)]++
		}
	}
}

// radixCountDigit recounts the one digit at shift over keys into hist.
func radixCountDigit(keys []uint64, shift uint, hist *[radixBuckets]uint32) {
	*hist = [radixBuckets]uint32{}
	for _, k := range keys {
		hist[uint8(k>>shift)]++
	}
}

// liveDigits lists, ascending, the digits the n keys counted into hists
// do not all agree on, and counts the sort and its passes: a digit whose
// summed histogram has one full bucket is constant, its scatter the
// identity.
func liveDigits(hists []radixHist, digits int, first uint64, n int) (live [8]int, passes int) {
	for d := 0; d < digits; d++ {
		b, sum := uint8(first>>(8*uint(d))), 0
		for c := range hists {
			sum += int(hists[c][d][b])
		}
		if sum != n {
			live[passes] = d
			passes++
		}
	}
	obsRadixSorts.Inc()
	obsRadixPasses.Add(int64(passes))
	return live, passes
}

// radixOffsets turns the chunks' counts of digit d into write offsets in
// place, an exclusive prefix over (digit value, chunk): chunk c's rows of
// value v follow those of earlier chunks, where a sequential stable pass
// puts them. One chunk, whose fixed cost sets smallRunCutoff, takes the
// flat prefix; the nested walk costs it several times as much.
func radixOffsets(hists []radixHist, d int) {
	sum := uint32(0)
	if len(hists) == 1 {
		h := &hists[0][d]
		for v, n := range h {
			h[v] = sum
			sum += n
		}
		return
	}
	for v := 0; v < radixBuckets; v++ {
		for c := range hists {
			n := hists[c][d][v]
			hists[c][d][v] = sum
			sum += n
		}
	}
}

// radixScatter is one stable counting-sort pass of a chunk on the digit
// at shift: every (key, oid) pair of src goes to its bucket's next slot
// in dst, starting from the chunk's offsets.
func radixScatter(srcK []uint64, srcO []uint32, dstK []uint64, dstO []uint32, off *[radixBuckets]uint32, shift uint) {
	srcO = srcO[:len(srcK)]
	for i, k := range srcK {
		b := uint8(k >> shift)
		p := off[b]
		off[b] = p + 1
		dstK[p] = k
		dstO[p] = srcO[i]
	}
}
