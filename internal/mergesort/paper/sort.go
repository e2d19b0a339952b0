// Package paper is the paper's SIMD-sort — a three-phase merge-sort
// after Balkesen et al. (reference [5] of the paper), one implementation
// per bank size b ∈ {16, 32, 64} — and its offset-value-coded packed
// merge (Do & Graefe). Phase 1 sorts blocks of (64/b)² elements with a
// lane-parallel sorting network into runs of 64/b; phase 2 merges
// adjacent runs with SWAR bitonic networks until they reach half the L2
// cache; phase 3 merges those with a loser tree of fanout F in
// ⌈log_F(runs)⌉ passes — the pass structure of the paper's Equation 8.
//
// It is measurement apparatus: queries sort with internal/mergesort's
// radix kernel. The figure experiments, the ablations and cost-model
// calibration, which measure bank-level parallelism, plug it into
// mergesort's entry points as mergesort.Params{Sort: paper.Params{}.Sort}.
package paper

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hw"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Params are the architecture-dependent knobs of the paper kernel.
// Zero fields resolve to their defaults for the bank a sort runs on.
type Params struct {
	// InCacheElems is the run length (elements) at which phase 2 stops.
	// Zero means half the L2 cache (the paper's M_L2/2), where an element
	// occupies bank/8 bytes of key plus a 4-byte oid.
	InCacheElems int
	// Fanout is the multiway merge fanout F of phase 3. Zero means
	// DefaultFanout.
	Fanout int
	// DisableOVC turns off offset-value coding in the loser-tree merges
	// (see ovc.go). The zero value leaves OVC on; the flag exists for
	// differential testing and benchmarking — the merged output is
	// byte-identical either way.
	DisableOVC bool
}

// DefaultFanout is the out-of-cache merge fanout F used when callers do
// not override it.
const DefaultFanout = 8

// insertionThreshold is the input size below which the paper kernel
// hands over to an insertion sort: sorting-network setup does not pay
// off for tiny inputs (these correspond to the small tied groups of
// later rounds, whose fixed cost the paper models as C_overhead).
const insertionThreshold = 24

// withDefaults overlays the defaults for bank on the unset (non-positive)
// fields of p.
func (p Params) withDefaults(bank int) Params {
	if p.InCacheElems <= 0 {
		p.InCacheElems = max(int(hw.Detect().L2/2)/(bank/8+4), 64)
	}
	if p.Fanout <= 0 {
		p.Fanout = DefaultFanout
	}
	return p
}

// Per-phase instrumentation. All writes are no-ops until obs.Enable();
// time.Now() is only reached behind an obs.Enabled() check, so the
// disabled overhead is a handful of atomic loads per sort call (never
// per element). The names keep the mergesort namespace they were
// published under.
var (
	obsPhase1       = obs.NewTimer("mergesort.phase1_inregister")
	obsPhase2       = obs.NewTimer("mergesort.phase2_incache")
	obsPhase3       = obs.NewTimer("mergesort.phase3_multiway")
	obsPhase2Passes = obs.NewCounter("mergesort.phase2_merge_passes")
	obsPhase3Passes = obs.NewCounter("mergesort.phase3_merge_passes")
	obsFanout       = obs.NewGauge("mergesort.phase3_fanout")
)

// Sort is the mergesort.Params.Sort hook: it sorts keys (each value <
// 2^bank) with their oids in place, the caller having checked that they
// pair up. Across workers it sorts one chunk per worker — cut on whole
// v×v in-register blocks, so phase 1 sees the blocks the whole-input
// sort would — merges them stably by chunk index (mergeChunks) and copies
// the rows back. Its networks leave ties in no particular order, so a
// last scan sorts the oids of every run of equal keys: ties come back
// oid-ascending, the hook's contract. The context is polled between
// merge passes, inside the loser-tree merges and before the scan; on an
// error keys and oids are in unspecified (but memory-safe) order.
func (p Params) Sort(ctx context.Context, bank int, keys []uint64, oids []uint32, workers int) error {
	k, err := kernelsFor(bank)
	if err != nil {
		return err
	}
	p = p.withDefaults(bank)
	switch bounds := pipeerr.Cut(len(keys), workers, k.v*k.v); {
	case len(keys) < insertionThreshold:
		mergesort.InsertionSort(keys, oids) // stable: no tie to order
		return nil
	case len(bounds) > 2:
		err = sortChunks(ctx, k, keys, oids, bounds, p, workers)
	default:
		err = sortRun(ctx, k, keys, oids, p)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		orderTies(keys, oids)
	}
	return err
}

// sortRun sorts one run or chunk with the three-phase sort. The phases
// work in packed copies, so on cancellation keys and oids are left as
// passed in.
func sortRun(ctx context.Context, k bankKernels, keys []uint64, oids []uint32, p Params) error {
	kw, ow := pack(keys, oids, k.lanes)
	kw2 := make([]uint64, len(kw))
	ow2 := make([]uint64, len(ow))
	inScratch, err := sortPackedChunk(ctx, kw, ow, kw2, ow2, k, len(keys), p)
	if err != nil {
		return err
	}
	if inScratch {
		kw, ow = kw2, ow2
	}
	unpack(kw, ow, k.lanes, keys, oids)
	return nil
}

// sortChunks sorts the chunks of bounds concurrently, one
// pipeerr.Pass range each (site faultinject.ChunkSort), merges them
// stably by chunk index and copies the merged rows back.
func sortChunks(ctx context.Context, k bankKernels, keys []uint64, oids []uint32, bounds []int, p Params, workers int) error {
	runK := make([][]uint64, len(bounds)-1)
	runO := make([][]uint32, len(bounds)-1)
	chunks := pipeerr.Pass{Stage: pipeerr.StageSort, Round: -1, Site: faultinject.ChunkSort}
	err := chunks.Ranges(ctx, workers, len(runK), func(gctx context.Context, c int) error {
		lo, hi := bounds[c], bounds[c+1]
		runK[c], runO[c] = keys[lo:hi], oids[lo:hi]
		return sortRun(gctx, k, runK[c], runO[c], p)
	})
	if err != nil {
		return err
	}
	mk, mo, err := mergeChunks(ctx, runK, runO, workers)
	if err != nil {
		return err
	}
	copy(keys, mk)
	copy(oids, mo)
	return nil
}

// orderTies sorts the oids of every run of equal keys ascending.
func orderTies(keys []uint64, oids []uint32) {
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		if j-i > 1 {
			slices.Sort(oids[i:j])
		}
		i = j
	}
}

// sortPackedChunk is the three-phase driver: it sorts the n elements of
// the packed arrays (kw, ow), ping-ponging merge passes with the scratch
// arrays (kw2, ow2), and reports whether the sorted elements ended up in
// the scratch pair. The context is polled between merge passes — each
// pass touches every element once — and inside the loser-tree merges.
// No offset-value code survives a pass: every merge re-materializes
// entering codes from adjacent elements (see popStretch).
func sortPackedChunk(ctx context.Context, kw, ow, kw2, ow2 []uint64, k bankKernels, n int, p Params) (inScratch bool, err error) {
	if n < 2 {
		return false, nil
	}
	tracing := obs.Enabled()
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}

	// Phase 1: in-register sorting of V×V blocks into runs of V.
	blockSz := k.v * k.v
	runs := make([]int, 0, n/k.v+2)
	b := 0
	for ; b+blockSz <= n; b += blockSz {
		k.blockSort(kw, ow, b)
		for r := 0; r < k.v; r++ {
			runs = append(runs, b+r*k.v)
		}
	}
	if b < n {
		packedInsertionSort(kw, ow, k.lanes, b, n)
		runs = append(runs, b)
	}
	runs = append(runs, n)
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

// kernelsFor returns the kernel set of a bank, or an error for a bank
// the paper does not sort in (footnote 4 excludes 8-bit banks).
func kernelsFor(bank int) (bankKernels, error) {
	switch bank {
	case 16:
		return bankKernels{4, 16, blockSort16, vecMergeRuns16}, nil
	case 32:
		return bankKernels{2, 8, blockSort32, vecMergeRuns32}, nil
	case 64:
		return bankKernels{1, 4, blockSort64, vecMergeRuns64}, nil
	default:
		return bankKernels{}, fmt.Errorf("paper: unsupported bank size %d", bank)
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
