package mergesort

import (
	"context"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
)

// Params bundles the architecture-dependent knobs of a sort. External
// callers (calibration, experiments, tests in other packages) use it to
// pin the phase boundaries instead of the cache-derived defaults. Every
// entry point resolves zero fields to their defaults for the bank it
// sorts, so Params{} means DefaultParams(bank/8).
type Params struct {
	// InCacheElems is the run length (elements) at which phase 2 stops.
	InCacheElems int
	// Fanout is the multiway merge fanout F of phase 3.
	Fanout int
	// ParallelThreshold is the input size (elements) below which the
	// parallel sort and merge paths fall back to their sequential
	// counterparts; tests lower it to exercise the parallel code on
	// small inputs. Zero means DefaultParallelThreshold.
	ParallelThreshold int
	// DisableOVC turns off offset-value coding in the out-of-cache
	// loser-tree merges (see ovc.go). The zero value leaves OVC on;
	// the flag exists for differential testing and benchmarking — the
	// merged output is byte-identical either way.
	DisableOVC bool
	// PaperKernel makes every run sort with the paper's three-phase SWAR
	// merge-sort instead of the production kernel (radix.go). The figure
	// experiments, the ablations and cost-model calibration set it: bank
	// parallelism is the phenomenon they measure. Nothing that serves a
	// query does.
	PaperKernel bool
}

// DefaultFanout is the out-of-cache merge fanout F used when callers do
// not override it.
const DefaultFanout = 8

// DefaultParallelThreshold is the input size below which threading is
// not worth the coordination cost.
const DefaultParallelThreshold = 1 << 14

// DefaultParams derives the phase parameters for keys of the given byte
// width from the cache hierarchy — what the zero Params resolves to.
// Phase 2 stops when a run fills half the L2 cache (the paper's M_L2/2),
// where an element occupies keyBytes of key plus a 4-byte oid.
func DefaultParams(keyBytes int) Params {
	caches := hw.Detect()
	elems := int(caches.L2/2) / (keyBytes + 4)
	if elems < 64 {
		elems = 64
	}
	return Params{
		InCacheElems:      elems,
		Fanout:            DefaultFanout,
		ParallelThreshold: DefaultParallelThreshold,
	}
}

// resolved overlays the bank's defaults on the unset (non-positive)
// fields of p. Every entry point applies it, so callers override only
// the knobs they care about.
func (p Params) resolved(bank int) Params {
	d := DefaultParams(bank / 8)
	if p.InCacheElems <= 0 {
		p.InCacheElems = d.InCacheElems
	}
	if p.Fanout <= 0 {
		p.Fanout = d.Fanout
	}
	if p.ParallelThreshold <= 0 {
		p.ParallelThreshold = d.ParallelThreshold
	}
	return p
}

// checkArgs is the precondition check shared by every entry point: keys
// and oids pair up element for element.
func checkArgs(keys []uint64, oids []uint32) error {
	if len(keys) != len(oids) {
		return fmt.Errorf("mergesort: %d keys but %d oids", len(keys), len(oids))
	}
	return nil
}

// checkRuns is checkArgs for the merge entry points, whose runs must
// bound ascending runs covering keys exactly: runs[0]=0 …
// runs[len-1]=len(keys).
func checkRuns(keys []uint64, oids []uint32, runs []int) error {
	if err := checkArgs(keys, oids); err != nil {
		return err
	}
	if len(runs) < 2 || runs[0] != 0 || runs[len(runs)-1] != len(keys) {
		return fmt.Errorf("mergesort: run boundaries must span [0, %d]", len(keys))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i] < runs[i-1] {
			return fmt.Errorf("mergesort: run boundaries not ascending at %d", i)
		}
	}
	return nil
}

// Banks supported by the SIMD-sort, matching the paper (footnote 4
// excludes 8-bit banks).
var Banks = []int{16, 32, 64}

// MinBank is b_min of the paper — the narrowest available bank, used by
// the plan-search round bound ⌊2(W−1)/b_min⌋+1.
const MinBank = 16

// Per-phase instrumentation. All writes are no-ops until obs.Enable();
// time.Now() is only reached behind an obs.Enabled() check, so the
// disabled overhead is a handful of atomic loads per sort call (never
// per element).
var (
	obsSorts          = obs.NewCounter("mergesort.sorts")
	obsElems          = obs.NewCounter("mergesort.elements")
	obsInsertionSorts = obs.NewCounter("mergesort.insertion_sorts")
	obsPhase1         = obs.NewTimer("mergesort.phase1_inregister")
	obsPhase2         = obs.NewTimer("mergesort.phase2_incache")
	obsPhase3         = obs.NewTimer("mergesort.phase3_multiway")
	obsPhase2Passes   = obs.NewCounter("mergesort.phase2_merge_passes")
	obsPhase3Passes   = obs.NewCounter("mergesort.phase3_merge_passes")
	obsFanout         = obs.NewGauge("mergesort.phase3_fanout")
)

// smallRunCutoff is the run length below which the production kernel is
// an insertion sort: the radix sort's fixed cost — zeroing and
// prefix-summing bank/8 histograms of 256 counters, 0.3 to 1.2 µs —
// only pays off beyond it. A measured fact, not a knob:
// BenchmarkKernelBakeoff (table in EXPERIMENTS.md) puts the crossover on
// random keys at about 28, 45 and 80 rows for banks 16, 32 and 64 and at
// about 28 rows on zipf-skewed keys for all three — the distribution
// moves it as much as the bank, so it is one constant: at 64 rows the
// radix sort is within 21 % of the insertion sort in its worst cell, and
// below 64 the insertion sort never costs more than 23 ns/row.
const smallRunCutoff = 64

// sortKernel names what sorts one run.
type sortKernel int

const (
	kernelInsertion sortKernel = iota
	kernelRadix
	kernelPaper
)

// chooseKernel is the one place that decides which kernel sorts a run
// of n rows. The production choice is by run length alone; the paper
// kernel hands over to the insertion sort where the paper's does
// (insertionThreshold), so no figure moves.
func chooseKernel(n int, p Params) sortKernel {
	switch {
	case p.PaperKernel && n >= insertionThreshold:
		return kernelPaper
	case p.PaperKernel || n < smallRunCutoff:
		return kernelInsertion
	default:
		return kernelRadix
	}
}

// SortWithParamsContext sorts keys (each value < 2^bank) together with
// their oids in place. It is the entry point every sort of one run
// bottoms out in, and the production kernel is stable: equal keys keep
// their input order. With p.PaperKernel it runs the paper's three-phase
// SIMD merge-sort with b-bit banks instead — the caller picks the bank,
// narrower banks give higher data-level parallelism (V = 256/b lanes
// per register) — which leaves the order of equal keys unspecified. The
// context is polled on entry and before every O(n) pass (each radix
// scatter; each merge pass, and every mergeCheckEvery elements inside a
// loser-tree merge). Either kernel works in scratch until its last
// pass, so on cancellation the sort returns ctx.Err() with keys and
// oids exactly as passed in.
func SortWithParamsContext(ctx context.Context, bank int, keys []uint64, oids []uint32, p Params) error {
	return SortScratchContext(ctx, bank, keys, oids, p, nil)
}

// SortScratchContext is SortWithParamsContext on caller-owned working
// memory: s is reused across calls by a goroutine that sorts many runs
// in a row. nil allocates per call.
func SortScratchContext(ctx context.Context, bank int, keys []uint64, oids []uint32, p Params, s *Scratch) error {
	if err := checkArgs(keys, oids); err != nil {
		return err
	}
	n := len(keys)
	obsSorts.Inc()
	obsElems.Add(int64(n))
	if err := ctx.Err(); err != nil {
		return err
	}
	switch chooseKernel(n, p) {
	case kernelInsertion:
		obsInsertionSorts.Inc()
		insertionSort(keys, oids)
		return nil
	case kernelRadix:
		kernelsFor(bank) // refuse an unsupported bank like the paper kernel does
		if s == nil {
			s = new(Scratch)
		}
		return radixSort(ctx, bank, keys, oids, s)
	}
	k := kernelsFor(bank)
	kw, ow := pack(keys, oids, k.lanes)
	kw2 := make([]uint64, len(kw))
	ow2 := make([]uint64, len(ow))
	inScratch, err := sortPackedChunk(ctx, kw, ow, kw2, ow2, k, 0, n, p.resolved(bank))
	if err != nil {
		return err
	}
	if inScratch {
		kw, ow = kw2, ow2
	}
	unpack(kw, ow, k.lanes, keys, oids)
	return nil
}

// sortPackedChunk is the three-phase driver: it sorts elements [lo, hi)
// of the packed arrays (kw, ow), ping-ponging merge passes with the
// scratch arrays (kw2, ow2), and reports whether the sorted range ended
// up in the scratch pair. lo must start a whole in-register block. The
// whole-input sort is the chunk [0, n); the parallel sort runs one chunk
// per worker, so the phase timers and pass counters cover both. The
// context is polled between merge passes — each pass touches the whole
// chunk once — and inside the loser-tree merges. No offset-value code
// survives a pass: every merge re-materializes entering codes from
// adjacent elements (see popStretch).
func sortPackedChunk(ctx context.Context, kw, ow, kw2, ow2 []uint64, k bankKernels, lo, hi int, p Params) (inScratch bool, err error) {
	if hi-lo < 2 {
		return false, nil
	}
	tracing := obs.Enabled()
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}

	// Phase 1: in-register sorting of V×V blocks into runs of V.
	blockSz := k.v * k.v
	runs := make([]int, 0, (hi-lo)/k.v+2)
	b := lo
	for ; b+blockSz <= hi; b += blockSz {
		k.blockSort(kw, ow, b)
		for r := 0; r < k.v; r++ {
			runs = append(runs, b+r*k.v)
		}
	}
	if b < hi {
		packedInsertionSort(kw, ow, k.lanes, b, hi)
		runs = append(runs, b)
	}
	runs = append(runs, hi)
	if tracing {
		obsPhase1.Add(time.Since(t0))
		t0 = time.Now()
	}

	srcK, srcO, dstK, dstO := kw, ow, kw2, ow2

	// Phase 2: pairwise register merging until runs fit half L2.
	runSize := k.v
	passes := 0
	for len(runs) > 2 && runSize < p.InCacheElems {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		runs = mergePassVec(srcK, srcO, k.lanes, runs, dstK, dstO, k.mergeRuns)
		srcK, srcO, dstK, dstO = dstK, dstO, srcK, srcO
		inScratch = !inScratch
		runSize *= 2
		passes++
	}
	if tracing {
		obsPhase2.Add(time.Since(t0))
		obsPhase2Passes.Add(int64(passes))
		t0 = time.Now()
	}

	// Phase 3: multiway loser-tree merging over packed data, fanout F.
	// With OVC on, each tree materializes a run head's entering code
	// from its adjacent in-run predecessor at replacement time — no
	// derive sweep and no per-element code array (see ovc.go).
	passes = 0
	for len(runs) > 2 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if runs, err = mergePassMultiwayVec(ctx, srcK, srcO, k.lanes, runs, p.Fanout, dstK, dstO, !p.DisableOVC); err != nil {
			return false, err
		}
		srcK, srcO, dstK, dstO = dstK, dstO, srcK, srcO
		inScratch = !inScratch
		passes++
	}
	if tracing {
		obsPhase3.Add(time.Since(t0))
		obsPhase3Passes.Add(int64(passes))
		if passes > 0 {
			obsFanout.Set(int64(p.Fanout))
		}
	}
	return inScratch, nil
}

// bankKernels is the per-bank kernel set of the three-phase sort: the
// packing geometry plus the in-register block sorter and the streaming
// pairwise run merger.
type bankKernels struct {
	lanes     int // key elements per 64-bit word
	v         int // lanes per simulated 256-bit register
	blockSort func(kw, ow []uint64, e int)
	mergeRuns func(srcK, srcO []uint64, a0, a1, b0, b1 int, dstK, dstO []uint64, d int)
}

func kernelsFor(bank int) bankKernels {
	switch bank {
	case 16:
		return bankKernels{4, 16, blockSort16, vecMergeRuns16}
	case 32:
		return bankKernels{2, 8, blockSort32, vecMergeRuns32}
	case 64:
		return bankKernels{1, 4, blockSort64, vecMergeRuns64}
	default:
		panic(fmt.Sprintf("mergesort: unsupported bank size %d", bank))
	}
}

// mergePassVec merges adjacent run pairs from src into dst with the
// register streaming kernel and returns the new run boundaries.
func mergePassVec(srcK, srcO []uint64, lanes int, runs []int, dstK, dstO []uint64,
	mergeRuns func(srcK, srcO []uint64, a0, a1, b0, b1 int, dstK, dstO []uint64, d int)) []int {
	newRuns := make([]int, 0, len(runs)/2+2)
	newRuns = append(newRuns, runs[0])
	i := 0
	for ; i+2 < len(runs); i += 2 {
		mergeRuns(srcK, srcO, runs[i], runs[i+1], runs[i+1], runs[i+2], dstK, dstO, runs[i])
		newRuns = append(newRuns, runs[i+2])
	}
	if i+1 < len(runs) { // odd run out: copy through
		copyPackedRange(srcK, srcO, lanes, runs[i], runs[i+1], dstK, dstO)
		newRuns = append(newRuns, runs[i+1])
	}
	return newRuns
}

// mergePassMultiwayVec runs one out-of-cache pass over packed data:
// groups of up to fanout runs are merged from src into dst, three or
// more runs by the (key, run index) loser tree — offset-value coded
// with useOVC (see ovc.go) — and a pair by the plain two-cursor merge,
// since a two-run merge compares two streaming heads with no replay to
// shortcut. The merged data is byte-identical either way.
func mergePassMultiwayVec(ctx context.Context, srcK, srcO []uint64, lanes int, runs []int, fanout int, dstK, dstO []uint64, useOVC bool) ([]int, error) {
	newRuns := []int{runs[0]}
	for lo := 0; lo < len(runs)-1; lo += fanout {
		hi := lo + fanout
		if hi > len(runs)-1 {
			hi = len(runs) - 1
		}
		group := runs[lo : hi+1]
		switch len(group) {
		case 2:
			copyPackedRange(srcK, srcO, lanes, group[0], group[1], dstK, dstO)
		case 3:
			packedScalarMerge(srcK, srcO, lanes, group[0], group[1], group[1], group[2], dstK, dstO, group[0])
		default:
			if err := treeMerge(ctx, srcK, srcO, dstK, dstO, lanes, group[:len(group)-1], group[1:], useOVC, group[0]); err != nil {
				return nil, err
			}
		}
		newRuns = append(newRuns, group[len(group)-1])
	}
	return newRuns, nil
}

// copyPackedRange copies elements [lo, hi) between packed arrays. The
// interior words are block-copied; the (possibly shared) boundary words
// go element-wise.
func copyPackedRange(srcK, srcO []uint64, lanes, lo, hi int, dstK, dstO []uint64) {
	for i := lo; i < hi; i++ {
		setKeyAt(dstK, i, lanes, keyAt(srcK, i, lanes))
		setOidAt(dstO, i, oidAt(srcO, i))
	}
}
