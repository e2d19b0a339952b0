package mergesort

// The production sort kernel: a stable LSD radix sort of (key, oid)
// pairs. The paper names radix sorting as future work (Section 7: "code
// massaging would allow a careful choice of the radix size when
// radix-sorting multiple columns"); in scalar Go it beats the
// three-phase SWAR merge-sort in every (bank, n, duplicates) cell of
// BenchmarkKernelBakeoff (EXPERIMENTS.md), so it sorts every run that
// serves a query, and the paper kernel stays what the figures and the
// cost model measure (internal/mergesort/paper).
//
// The kernel has two layouts, chosen by the bank and the run length
// (LayoutOf). A bank of at most 32 bits and a run of at least
// PackMinRows rows sort one packed key<<32 | oid word per row — one load
// and one store per move, as the paper kernel's own lanes pack (key,
// oid) — on digits of up to packMaxBits bits: an 18-bit round is two
// scatters, a 29-bit one three. The first scatter reads the caller's
// keys and oids and writes words, the last writes them back. Every
// other run — a 64-bit bank, or a run too short to pay for the wider
// histograms — moves (key, oid) pairs over 8-bit digits.
//
// One counting pre-pass fills the histograms of every digit of the
// bank, so a digit on which every key agrees is known before any data
// moves and its scatter is skipped: the round's real width sets the
// cost, not the bank. Stability makes the kernel usable round by round
// and leaves every run of equal keys in input order, which is oid order
// wherever mcsort calls it.
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

// radixBuckets is the bucket count of one 8-bit pair digit: 256 uint32
// counters per histogram, so even the eight histograms of a 64-bit bank
// stay L1-resident.
const radixBuckets = 1 << 8

// packBuckets is the bucket count of the widest packed digit.
const packBuckets = 1 << packMaxBits

// minChunkRows bounds the parallel radix sort's chunks from below,
// whatever the worker count. A chunk costs one histogram per digit and,
// per live digit, its share of the offset walk radixOffsets runs on one
// goroutine: 256 counters for a pair digit, a sixteenth of a minimum
// chunk's rows, and 2,048 for a packed 11-bit digit, half of them — so
// a minimum chunk is twice PackMinRows, the run length from which the
// packed kernel pays for its histograms at all. Floors of 8,192 to
// 32,768 rows measured no faster at two and four workers once n holds
// two chunks under each (EXPERIMENTS.md "One-word radix"). Without it
// the server's 1,024 workers would cut a 16,384-row group into 16-row
// chunks, 24 MB of packed histograms.
const minChunkRows = 2 * PackMinRows

// radixHist holds the pair histograms of every digit of one chunk.
type radixHist = [8][radixBuckets]uint32

// packHist holds the packed histograms of every digit of one chunk: a
// 32-bit bank is three digits of 11, 11 and 10 bits, a 16-bit bank two
// of 8.
type packHist = [3][packBuckets]uint32

// Layout is how the kernel sorts one run (LayoutOf): the dispatch of
// radixSort and parallelRadixSort, and what the cost model prices
// (costmodel.TRadix).
type Layout struct {
	Bits   int  // digit width
	Hists  int  // histograms the counting sweep fills
	Digits int  // live digits of the key, ⌈width/Bits⌉
	Packed bool // key<<32 | oid words, not (key, oid) pairs
	// RowBytes is what a scatter streams per row, its source and its
	// destination: 16 bytes of words or 24 of pairs.
	RowBytes float64
	// ScratchBytes is the scratch per row: one word array or pair for at
	// most two live digits, two for more.
	ScratchBytes float64
}

// LayoutOf returns how the kernel sorts n rows of a width-bit key in a
// bank-bit bank: from PackMinRows rows on, a bank of at most 32 bits as
// packed words on the narrowest digits of at most packMaxBits bits that
// take the bank in as few passes — 11 bits for bank 32, 8 for bank 16 —
// and every other run as pairs on 8-bit digits. A digit every key agrees
// on is skipped, so a key whose every digit below width varies costs
// Digits scatters (TestCostModelMirrorsKernel).
func LayoutOf(n float64, bank, width int) Layout {
	l := Layout{Bits: 8, Hists: bank / 8, RowBytes: 24}
	if bank <= 32 && n >= PackMinRows {
		l.Hists = (bank + packMaxBits - 1) / packMaxBits
		l.Bits = (bank + l.Hists - 1) / l.Hists
		l.Packed, l.RowBytes = true, 16
	}
	l.Digits = (width + l.Bits - 1) / l.Bits
	l.ScratchBytes = l.RowBytes
	if l.Digits <= 2 {
		l.ScratchBytes /= 2
	}
	return l
}

// Scratch is the working memory of the production kernel: the two
// (key, oid) pairs the pair scatters ping-pong between — of which the
// packed scatters use only the key arrays, as word arrays, one for a
// sort of two passes and two for three — and the histograms of both
// layouts. A goroutine that sorts many runs in a row (mcsort's group
// batches) hands every call the same Scratch and allocates once per
// batch instead of once per group; it grows to the largest run it has
// served. The zero value is ready to use. A Scratch must not be shared
// between concurrent sorts. A Params.Sort hook ignores it.
type Scratch struct {
	k  [2][]uint64
	o  [2][]uint32
	ph *radixHist
	wh *packHist
}

// words returns scratch word array i with room for n words.
func (s *Scratch) words(i, n int) []uint64 {
	if cap(s.k[i]) < n {
		s.k[i] = make([]uint64, n)
	}
	return s.k[i][:n]
}

// pair returns scratch pair i with room for n elements.
func (s *Scratch) pair(i, n int) ([]uint64, []uint32) {
	if cap(s.o[i]) < n {
		s.o[i] = make([]uint32, n)
	}
	return s.words(i, n), s.o[i][:n]
}

// pairHists returns the pair histograms, the first digits zeroed.
func (s *Scratch) pairHists(digits int) *radixHist {
	if s.ph == nil {
		s.ph = new(radixHist)
	}
	clear(s.ph[:digits])
	return s.ph
}

// wordHists returns the packed histograms, the first 2^bits counters of
// each of the first digits zeroed.
func (s *Scratch) wordHists(bits uint, digits int) *packHist {
	if s.wh == nil {
		s.wh = new(packHist)
	}
	for d := range s.wh[:digits] {
		clear(s.wh[d][:1<<bits])
	}
	return s.wh
}

// passDst returns where pair scatter pass i of passes writes: pass i
// reads what pass i-1 wrote, from the caller's keys/oids through the two
// scratch pairs back to them, and a single pass scatters into scratch
// for copyBack, so only a sort's last step writes the caller's slices.
func (s *Scratch) passDst(i, passes int, keys []uint64, oids []uint32) ([]uint64, []uint32) {
	if i < passes-1 || passes == 1 {
		return s.pair(i&1, len(keys))
	}
	return keys, oids
}

// wordDst returns where packed scatter pass i of passes writes its
// words: the two word arrays in turn; the last pass of several writes
// the caller's pairs instead (nil).
func (s *Scratch) wordDst(i, passes, n int) []uint64 {
	if i < passes-1 || passes == 1 {
		return s.words(i&1, n)
	}
	return nil
}

// copyBack ends a sort: after one pass, and one more poll, it copies
// scratch pair 0 into keys/oids — or, packed, unpacks word array 0.
func (s *Scratch) copyBack(ctx context.Context, packed bool, passes int, keys []uint64, oids []uint32) error {
	if passes != 1 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if packed {
		unpack(s.words(0, len(keys)), keys, oids)
		return nil
	}
	k, o := s.pair(0, len(keys))
	copy(keys, k)
	copy(oids, o)
	return nil
}

// unpack splits key<<32 | oid words into keys and oids.
func unpack(words, keys []uint64, oids []uint32) {
	keys, oids = keys[:len(words)], oids[:len(words)]
	for i, w := range words {
		keys[i], oids[i] = w>>32, uint32(w)
	}
}

// radixSort sorts keys (each value < 2^bank) with their oids in place,
// stably: the one-chunk case of the kernel. len(keys) == len(oids) and
// the poll before the counting pre-pass are the entry point's
// (SortScratchContext); the context is polled again before each scatter
// and the copy-back, so every O(n) pass follows a poll, and every pass
// but the last writes scratch only: on cancellation radixSort returns
// ctx.Err() with keys and oids exactly as passed in.
func radixSort(ctx context.Context, bank int, keys []uint64, oids []uint32, s *Scratch) error {
	l := LayoutOf(float64(len(keys)), bank, bank)
	if l.Packed {
		return packSort(ctx, bank, l, keys, oids, s)
	}
	hist := s.pairHists(l.Hists)
	radixCount(keys, l.Hists, hist)
	col := func(_, d int) []uint32 { return hist[d][:] }
	live, passes := liveDigits(1, l.Hists, 8, keys[0], len(keys), col)
	srcK, srcO := keys, oids
	for i, d := range live[:passes] {
		if err := ctx.Err(); err != nil {
			return err
		}
		dstK, dstO := s.passDst(i, passes, keys, oids)
		radixOffsets(1, d, col)
		radixScatter(srcK, srcO, dstK, dstO, &hist[d], 8*uint(d))
		srcK, srcO = dstK, dstO
	}
	return s.copyBack(ctx, false, passes, keys, oids)
}

// packSort is radixSort on packed words, laid out by l.
func packSort(ctx context.Context, bank int, l Layout, keys []uint64, oids []uint32, s *Scratch) error {
	bits := uint(l.Bits)
	hist := s.wordHists(bits, l.Hists)
	packCount(keys, bank, hist)
	col := func(_, d int) []uint32 { return hist[d][:1<<bits] }
	live, passes := liveDigits(1, l.Hists, bits, keys[0], len(keys), col)
	var src []uint64
	for i, d := range live[:passes] {
		if err := ctx.Err(); err != nil {
			return err
		}
		dst := s.wordDst(i, passes, len(keys))
		radixOffsets(1, d, col)
		packScatter(i, keys, oids, src, dst, keys, oids, &hist[d], bits*uint(d), bits)
		src = dst
	}
	return s.copyBack(ctx, true, passes, keys, oids)
}

// ParallelSortWithParamsContext sorts keys (each value < 2^bank) with
// their oids in place across `workers` goroutines (Section 6.4 of the
// paper): by-row chunks with parallelRadixSort, whose output is
// byte-identical to SortScratchContext's. Inputs below ParallelMinRows
// rows, or workers < 2, take the sequential path; a p.Sort hook gets
// every input from ParallelMinRows on, with the worker count. A
// cancelled context aborts between passes and chunks; a worker panic
// surfaces as a *pipeerr.PipelineError with stage "sort" and cancels its
// siblings. On any error keys/oids are in unspecified (but memory-safe)
// order, and callers discard them (docs/robustness.md).
func ParallelSortWithParamsContext(ctx context.Context, bank int, keys []uint64, oids []uint32, p Params, workers int) error {
	if err := checkArgs(bank, keys, oids); err != nil {
		return err
	}
	if workers < 2 || len(keys) < ParallelMinRows {
		return SortScratchContext(ctx, bank, keys, oids, p, nil)
	}
	if p.Sort != nil {
		return p.Sort(ctx, bank, keys, oids, workers)
	}
	obsParSorts.Inc()
	obsParWorkers.Set(int64(workers))
	busy := pipeerr.StartBusy(workers)
	if err := parallelRadixSort(ctx, bank, keys, oids, radixChunks(len(keys), workers), workers, busy); err != nil {
		return err
	}
	busy.Publish(obsParEffX1000)
	return ctx.Err()
}

// radixChunks cuts n rows into the chunks of the parallel radix sort:
// one per worker, but never more than n/minChunkRows.
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
	l := LayoutOf(float64(len(keys)/(len(bounds)-1)), bank, bank)
	if l.Packed {
		return parallelPackSort(ctx, bank, l, keys, oids, bounds, workers, busy)
	}
	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort, Busy: busy}
	digits := l.Hists
	hists := make([]radixHist, len(bounds)-1)
	err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
		radixCount(keys[bounds[c]:bounds[c+1]], digits, &hists[c])
		return nil
	})
	if err != nil {
		return err
	}
	col := func(c, d int) []uint32 { return hists[c][d][:] }
	live, passes := liveDigits(len(hists), digits, 8, keys[0], len(keys), col)
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
		radixOffsets(len(hists), d, col)
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
	return s.copyBack(ctx, false, passes, keys, oids)
}

// parallelPackSort is parallelRadixSort on packed words, laid out by l:
// each pass scatters every chunk's pairs or words into the pass's
// destination, as packSort does for one chunk.
func parallelPackSort(ctx context.Context, bank int, l Layout, keys []uint64, oids []uint32, bounds []int, workers int, busy *pipeerr.Busy) error {
	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort, Busy: busy}
	bits, digits := uint(l.Bits), l.Hists
	hists := make([]packHist, len(bounds)-1)
	err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
		packCount(keys[bounds[c]:bounds[c+1]], bank, &hists[c])
		return nil
	})
	if err != nil {
		return err
	}
	col := func(c, d int) []uint32 { return hists[c][d][:1<<bits] }
	live, passes := liveDigits(len(hists), digits, bits, keys[0], len(keys), col)
	var s Scratch
	var src []uint64
	for i, d := range live[:passes] {
		shift := bits * uint(d)
		if i > 0 {
			err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
				packCountDigit(src[bounds[c]:bounds[c+1]], shift, bits, &hists[c][d])
				return nil
			})
			if err != nil {
				return err
			}
		}
		radixOffsets(len(hists), d, col)
		dst := s.wordDst(i, passes, len(keys))
		err := chunks.Ranges(ctx, workers, len(hists), func(_ context.Context, c int) error {
			lo, hi := bounds[c], bounds[c+1]
			var in []uint64
			if i > 0 {
				in = src[lo:hi]
			}
			packScatter(i, keys[lo:hi], oids[lo:hi], in, dst, keys, oids, &hists[c][d], shift, bits)
			return nil
		})
		if err != nil {
			return err
		}
		src = dst
	}
	return s.copyBack(ctx, true, passes, keys, oids)
}

// radixCount is the counting pre-pass: one sweep over keys that fills
// the histogram of every 8-bit digit of the bank.
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

// packCount is the packed counting pre-pass over the digits
// LayoutOf gives the bank: 8 and 8 bits for bank 16, 11, 11 and 10
// for bank 32.
func packCount(keys []uint64, bank int, hist *packHist) {
	if bank == 16 {
		for _, k := range keys {
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
		}
		return
	}
	for _, k := range keys {
		hist[0][k&(packBuckets-1)]++
		hist[1][(k>>packMaxBits)&(packBuckets-1)]++
		hist[2][(k>>(2*packMaxBits))&(packBuckets-1)]++
	}
}

// radixCountDigit recounts the one digit at shift over keys into hist.
func radixCountDigit(keys []uint64, shift uint, hist *[radixBuckets]uint32) {
	*hist = [radixBuckets]uint32{}
	for _, k := range keys {
		hist[uint8(k>>shift)]++
	}
}

// packCountDigit recounts the one digit of bits bits at key bit shift
// over words into hist.
func packCountDigit(words []uint64, shift, bits uint, hist *[packBuckets]uint32) {
	clear(hist[:1<<bits])
	m := uint64(1)<<(bits&63) - 1
	shift = (shift + 32) & 63
	for _, w := range words {
		hist[(w>>shift)&m&(packBuckets-1)]++
	}
}

// liveDigits lists, ascending, the digits of bits bits the n keys
// counted into the chunks' histograms (col(c, d) is chunk c's of digit
// d) do not all agree on, and counts the sort and its passes: a digit
// whose summed histogram counts n keys of the first key's value is
// constant, its scatter the identity.
func liveDigits(chunks, digits int, bits uint, first uint64, n int, col func(c, d int) []uint32) (live [8]int, passes int) {
	m := uint64(1)<<bits - 1
	for d := 0; d < digits; d++ {
		v, sum := first>>(bits*uint(d))&m, 0
		for c := 0; c < chunks; c++ {
			sum += int(col(c, d)[v])
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
// puts them. One chunk, whose fixed cost sets SmallRunCutoff and
// PackMinRows, takes the flat prefix; the nested walk costs it several
// times as much.
func radixOffsets(chunks, d int, col func(c, d int) []uint32) {
	sum := uint32(0)
	if chunks == 1 {
		h := col(0, d)
		for v, n := range h {
			h[v] = sum
			sum += n
		}
		return
	}
	cols := make([][]uint32, chunks)
	for c := range cols {
		cols[c] = col(c, d)
	}
	for v := range cols[0] {
		for _, h := range cols {
			n := h[v]
			h[v] = sum
			sum += n
		}
	}
}

// radixScatter is one stable counting-sort pass of a chunk on the 8-bit
// digit at shift: every (key, oid) pair of src goes to its bucket's next
// slot in dst, starting from the chunk's offsets.
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

// packScatter is one chunk's stable counting-sort pass i on the packed
// digit of bits bits at key bit shift, from the chunk's offsets: the
// first pass reads the chunk's pairs srcK/srcO, every later one its
// words src; a pass with a word destination dst writes key<<32 | oid
// words, the last of several the pairs dstK/dstO.
func packScatter(i int, srcK []uint64, srcO []uint32, src, dst []uint64, dstK []uint64, dstO []uint32, off *[packBuckets]uint32, shift, bits uint) {
	m := uint64(1)<<(bits&63) - 1
	switch {
	case i == 0:
		packIn(srcK, srcO, dst, off, shift&63, m)
	case dst != nil:
		packMove(src, dst, off, (shift+32)&63, m)
	default:
		packOut(src, dstK, dstO, off, (shift+32)&63, m)
	}
}

// packIn scatters pairs into words.
func packIn(srcK []uint64, srcO []uint32, dst []uint64, off *[packBuckets]uint32, shift uint, m uint64) {
	srcO = srcO[:len(srcK)]
	for i, k := range srcK {
		b := k >> shift & m & (packBuckets - 1)
		p := off[b]
		off[b] = p + 1
		dst[p] = k<<32 | uint64(srcO[i])
	}
}

// packMove scatters words into words.
func packMove(src, dst []uint64, off *[packBuckets]uint32, shift uint, m uint64) {
	for _, w := range src {
		b := w >> shift & m & (packBuckets - 1)
		p := off[b]
		off[b] = p + 1
		dst[p] = w
	}
}

// packOut scatters words into pairs.
func packOut(src []uint64, dstK []uint64, dstO []uint32, off *[packBuckets]uint32, shift uint, m uint64) {
	for _, w := range src {
		b := w >> shift & m & (packBuckets - 1)
		p := off[b]
		off[b] = p + 1
		dstK[p] = w >> 32
		dstO[p] = uint32(w)
	}
}
