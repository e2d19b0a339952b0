// Package mergesort is the sort stack that serves queries: a stable LSD
// radix sort, sequential and across workers (radix.go), of packed
// key<<32 | oid words on digits of up to 11 bits in banks of at most 32
// bits and of (key, oid) pairs on 8-bit digits otherwise, with an
// insertion sort below SmallRunCutoff rows; the
// top-K partial sort behind LIMIT (topk.go); and the one merge of sorted
// runs, under the coordinator's cross-shard gather (merge.go).
//
// Each sort permutes a parallel []uint32 oid array together with the
// keys, producing the object-identifier permutation the column-store
// needs for subsequent lookups. The paper's own SIMD merge-sort lives in
// internal/mergesort/paper, which plugs into these entry points through
// Params.Sort; this package does not import it.
package mergesort

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Params carries the sort-kernel hook. The zero Params sorts with the
// production kernel.
type Params struct {
	// Sort, when set, replaces the radix kernel (nil) for every sort:
	// SortScratchContext calls it at one worker, and
	// ParallelSortWithParamsContext at its worker count from
	// ParallelMinRows rows on, so TopKContext inherits it too. It gets
	// checked arguments and must leave keys ascending with their oids, and
	// equal keys with ascending oids whenever they came in ascending —
	// what the radix kernel does by stability and internal/mcsort's tie
	// order rests on. Only the paper's kernel (internal/mergesort/paper)
	// is plugged in, by the figure experiments, the ablations and
	// calibration.
	Sort func(ctx context.Context, bank int, keys []uint64, oids []uint32, workers int) error
}

// ParallelMinRows is the input size from which a sort, a top-K select
// and a later round's group go parallel (Section 6.4 of the paper):
// below it threading is not worth the coordination cost. It holds two
// minimum chunks or more (the blank constant fails to compile
// otherwise), so the parallel radix sort never falls back.
const (
	ParallelMinRows = 1 << 14
	_               = uint(ParallelMinRows - 2*minChunkRows)
)

// DefaultParams returns the zero Params; keyBytes stays for the callers
// that derive their parameters per bank.
func DefaultParams(keyBytes int) Params {
	return Params{}
}

// checkArgs is the precondition check shared by the sort entry points:
// the bank is one of Banks, and keys and oids pair up element for
// element.
func checkArgs(bank int, keys []uint64, oids []uint32) error {
	if !slices.Contains(Banks, bank) {
		return fmt.Errorf("mergesort: unsupported bank size %d", bank)
	}
	if len(keys) != len(oids) {
		return fmt.Errorf("mergesort: %d keys but %d oids", len(keys), len(oids))
	}
	return nil
}

// Banks are the bank widths a sort runs in, matching the paper
// (footnote 4 excludes 8-bit banks).
var Banks = []int{16, 32, 64}

// Per-call instrumentation. All writes are no-ops until obs.Enable().
var (
	obsSorts          = obs.NewCounter("mergesort.sorts")
	obsElems          = obs.NewCounter("mergesort.elements")
	obsInsertionSorts = obs.NewCounter("mergesort.insertion_sorts")
)

// SmallRunCutoff is the run length below which the production kernel is
// an insertion sort: the radix sort's fixed cost — zeroing and
// prefix-summing bank/8 histograms of 256 counters, 0.3 to 1.2 µs —
// only pays off beyond it. A measured fact, not a knob:
// BenchmarkKernelBakeoff (table in EXPERIMENTS.md) puts the crossover on
// random keys at about 28, 45 and 80 rows for banks 16, 32 and 64 and at
// about 28 rows on zipf-skewed keys for all three — the distribution
// moves it as much as the bank, so it is one constant: at 64 rows the
// radix sort is within 21 % of the insertion sort in its worst cell, and
// below 64 the insertion sort never costs more than 23 ns/row. The cost
// model prices an insertion sort below it (costmodel.TRadix).
const SmallRunCutoff = 64

// packMaxBits and PackMinRows shape the packed kernel (LayoutOf), and
// are measured facts like SmallRunCutoff, not knobs. A bank of at most
// 32 bits sorts packed words on digits of at most packMaxBits bits — 11,
// 11 and 10 for bank 32, 8 and 8 for bank 16 — from PackMinRows rows
// on, and (key, oid) pairs on 8-bit digits below. Interleaved medians
// of 15 runs (EXPERIMENTS.md "One-word radix") put the 11-bit packed
// kernel 5 to 20 % behind the pairs at 1,024 rows, level at 1,536, and
// ahead at 2,048 rows on uniform and zipf keys of 18, 29 and 32 bits;
// at 2^19 rows it is about 40 % ahead. Wider digits than 11 bits would
// take bank 32 in two passes, but their 2^12 counters per histogram
// leave L1.
const (
	packMaxBits = 11
	PackMinRows = 2048
)

// SortScratchContext sorts keys (each value < 2^bank) together with
// their oids in place, stably: equal keys keep their input order. It is
// the entry point every sort of one run bottoms out in. s is working
// memory a goroutine that sorts many runs in a row reuses across calls;
// nil allocates per call. The context is polled on entry and before
// every O(n) pass (each radix scatter and the copy-back). The kernel
// works in scratch until its last pass, so on cancellation the sort
// returns ctx.Err() with keys and oids exactly as passed in. A p.Sort
// hook replaces the kernel, with its own cancellation contract.
func SortScratchContext(ctx context.Context, bank int, keys []uint64, oids []uint32, p Params, s *Scratch) error {
	if err := checkArgs(bank, keys, oids); err != nil {
		return err
	}
	obsSorts.Inc()
	obsElems.Add(int64(len(keys)))
	if err := ctx.Err(); err != nil {
		return err
	}
	switch {
	case p.Sort != nil:
		return p.Sort(ctx, bank, keys, oids, 1)
	case len(keys) < SmallRunCutoff:
		obsInsertionSorts.Inc()
		InsertionSort(keys, oids)
		return nil
	}
	if s == nil {
		s = new(Scratch)
	}
	return radixSort(ctx, bank, keys, oids, s)
}

// SortGroupsContext sorts each run [groups[g], groups[g+1]) of keys
// (positions into keys and oids) whose length is at least 2 and below
// maxRows, as SortScratchContext would sort it alone: stably, a run
// below SmallRunCutoff rows by InsertionSort, a longer one by the radix
// kernel in s (nil allocates once), and every run by the p.Sort hook
// when it is set. It is the entry point of a batch of many small runs
// (a later round of mcsort holds 100k+ groups): the arguments are
// checked and the counters booked once per call, and the context is
// polled before every run the radix kernel or the hook sorts, not
// before an insertion sort.
func SortGroupsContext(ctx context.Context, bank int, keys []uint64, oids []uint32, groups []int32, maxRows int, p Params, s *Scratch) error {
	if err := checkArgs(bank, keys, oids); err != nil {
		return err
	}
	var runs, elems, small int64
	defer func() {
		obsSorts.Add(runs)
		obsElems.Add(elems)
		obsInsertionSorts.Add(small)
	}()
	for g := 0; g+1 < len(groups); g++ {
		lo, hi := int(groups[g]), int(groups[g+1])
		n := hi - lo
		if n < 2 || n >= maxRows {
			continue
		}
		runs++
		elems += int64(n)
		if p.Sort == nil && n < SmallRunCutoff {
			small++
			InsertionSort(keys[lo:hi], oids[lo:hi])
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if p.Sort != nil {
			err = p.Sort(ctx, bank, keys[lo:hi], oids[lo:hi], 1)
		} else {
			if s == nil {
				s = new(Scratch)
			}
			err = radixSort(ctx, bank, keys[lo:hi], oids[lo:hi], s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// InsertionSort sorts keys (and oids) in place, stably: the production
// kernel below SmallRunCutoff rows, and the paper kernel's below its
// own threshold.
func InsertionSort(keys []uint64, oids []uint32) {
	for i := 1; i < len(keys); i++ {
		k, o := keys[i], oids[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], oids[j+1] = keys[j], oids[j]
			j--
		}
		keys[j+1], oids[j+1] = k, o
	}
}
