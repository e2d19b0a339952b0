package mergesort

// The production sort kernel: a stable LSD radix sort of (key, oid)
// pairs over 8-bit digits. The paper names radix sorting as future work
// (Section 7: "code massaging would allow a careful choice of the radix
// size when radix-sorting multiple columns"); in scalar Go it beats the
// three-phase SWAR merge-sort in every (bank, n, duplicates) cell of
// BenchmarkKernelBakeoff (EXPERIMENTS.md), so it sorts every run that
// serves a query, and the paper kernel stays what the figures and the
// cost model measure (Params.PaperKernel).
//
// One counting pre-pass fills the histograms of all bank/8 digits, so a
// digit on which every key agrees is known before any data moves and
// its scatter is skipped: an 18-bit round key in a 32-bit bank costs
// three scatters, not four — the round's real width sets the cost, not
// the bank. Stability makes the kernel usable round by round and leaves
// every run of equal keys in input order, which is oid order wherever
// mcsort calls it.

import (
	"context"

	"repro/internal/obs"
)

var (
	obsRadixSorts  = obs.NewCounter("mergesort.radix_sorts")
	obsRadixPasses = obs.NewCounter("mergesort.radix_passes")
)

// radixBuckets is the bucket count of one 8-bit digit: 256 uint32
// counters per histogram, so even the eight histograms of a 64-bit bank
// stay L1-resident.
const radixBuckets = 1 << 8

// Scratch is the working memory of the production kernel: the two
// (key, oid) pairs its scatter passes ping-pong between. A goroutine
// that sorts many runs in a row (mcsort's group batches) hands every
// call the same Scratch and allocates once per batch instead of once per
// group; it grows to the largest run it has served. The zero value is
// ready to use. A Scratch must not be shared between concurrent sorts.
// The paper kernel ignores it (it packs into arrays of its own).
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

// radixSort sorts keys (each value < 2^bank) with their oids in place,
// stably. len(keys) == len(oids) and the poll before the counting
// pre-pass are the entry point's (SortScratchContext); the context is
// polled again before each scatter, so every O(n) pass follows a poll,
// and every pass but the last writes scratch only: on cancellation
// radixSort returns ctx.Err() with keys and oids exactly as passed in.
func radixSort(ctx context.Context, bank int, keys []uint64, oids []uint32, s *Scratch) error {
	n := len(keys)
	digits := bank / 8
	var hist [8][radixBuckets]uint32
	radixCount(keys, digits, &hist)

	// A digit whose histogram has one full bucket is constant across the
	// run: its scatter would be the identity permutation.
	var live [8]int
	passes := 0
	for d := 0; d < digits; d++ {
		if hist[d][uint8(keys[0]>>(8*uint(d)))] != uint32(n) {
			live[passes] = d
			passes++
		}
	}
	obsRadixSorts.Inc()
	obsRadixPasses.Add(int64(passes))
	if passes == 0 {
		return nil // all keys equal
	}

	// Pass i reads what pass i-1 wrote; the chain starts at the caller's
	// slices, alternates between the two scratch pairs, and ends in the
	// caller's slices again. A single live digit scatters into scratch
	// and is copied back, so the caller's slices are still only written
	// by the step no poll follows.
	srcK, srcO := keys, oids
	for i := 0; i < passes; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dstK, dstO := keys, oids
		if i < passes-1 || passes == 1 {
			dstK, dstO = s.pair(i&1, n)
		}
		d := live[i]
		radixScatter(srcK, srcO, dstK, dstO, &hist[d], 8*uint(d))
		srcK, srcO = dstK, dstO
	}
	if passes == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		copy(keys, srcK)
		copy(oids, srcO)
	}
	return nil
}

// radixCount is the counting pre-pass: one sweep over keys that fills
// the histogram of every digit of the bank.
func radixCount(keys []uint64, digits int, hist *[8][radixBuckets]uint32) {
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

// radixScatter is one stable counting-sort pass on the digit at shift:
// it turns the digit's histogram into bucket offsets and moves every
// (key, oid) pair of src to its bucket's next free slot in dst.
func radixScatter(srcK []uint64, srcO []uint32, dstK []uint64, dstO []uint32, hist *[radixBuckets]uint32, shift uint) {
	sum := uint32(0)
	for b, c := range hist {
		hist[b] = sum
		sum += c
	}
	srcO = srcO[:len(srcK)]
	for i, k := range srcK {
		b := uint8(k >> shift)
		p := hist[b]
		hist[b] = p + 1
		dstK[p] = k
		dstO[p] = srcO[i]
	}
}
