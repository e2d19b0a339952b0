// Package faultinject is a build-tag-free fault-injection hook registry
// for the parallel MCS pipeline, built on the same zero-cost-when-
// disabled pattern as internal/obs: every Fire site first loads one
// package-level atomic bool and returns, so production code may call
// Fire unconditionally from its hot paths. Tests enable the registry,
// install hooks at named sites — panics, delays, forced cancellations —
// and exercise the pipeline's containment and cancellation behavior
// without build tags or test-only seams in the pipeline code.
//
//	restore := faultinject.Set(faultinject.ChunkSort, func() { panic("boom") })
//	defer restore()
//	_, err := mcsort.ExecuteContext(ctx, inputs, p, opts) // err names the stage
//
// A hook runs on the goroutine that reaches the site, so a panicking
// hook is indistinguishable from the site's own code panicking — which
// is exactly what the containment tests need to prove.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Site names. Each is fired once per pass/chunk/batch at the named
// point of the pipeline, never inside per-row loops.
const (
	// GroupSort: mcsort's later rounds, once per round before the group
	// queue is drained.
	GroupSort = "mcsort.group_sort"
	// Permute: mcsort's lookup/reorder pass, once per chunk.
	Permute = "mcsort.permute"
	// ChunkSort: mergesort's chunk passes, once per chunk of each: the
	// parallel radix sort's count and scatter passes (mcsort's round 0
	// and cooperative group sorts), the top-K cut and compaction, and
	// the paper kernel's parallel chunk sorts (internal/mergesort/paper).
	ChunkSort = "mergesort.chunk_sort"
	// LoserMerge: mergesort's merge of sorted runs (MergeRunsContext),
	// once per rank share: the coordinator's cross-shard gather and the
	// paper kernel's parallel chunk merge.
	LoserMerge = "mergesort.loser_merge"
	// MassageChunk: the massage FIP pass, once per row chunk.
	MassageChunk = "massage.chunk"
	// Payload: mcsort's fill of a carried payload (Options.Payload),
	// once per row chunk.
	Payload = "mcsort.payload"
	// GroupScan: mcsort's group scan after each round's sort, once per
	// range of positions.
	GroupScan = "mcsort.group_scan"
	// FilterScan: the engine's filter stage, once per range of result
	// words of each filter's ByteSlice scan.
	FilterScan = "engine.filter_scan"
	// RowList: the engine's row list of a selection, once per range of
	// bit vector words in each of its count and fill passes.
	RowList = "engine.row_list"
	// Gather: the engine's aggregate-column gather, once per chunk.
	Gather = "engine.gather"
	// Aggregate: the engine's group-aggregation scan, once per chunk.
	Aggregate = "engine.aggregate"
	// ShardFanout: the coordinator's per-shard sub-query worker, once
	// per shard sub-request before the client call.
	ShardFanout = "shard.fanout"
	// ShardMerge: the coordinator's cross-shard gather, once per shard
	// run build on the fan-out goroutine that received the answer, and
	// once per merge after every run is built.
	ShardMerge = "shard.merge"
)

// Sites lists every named site, for test batteries that iterate them.
var Sites = []string{
	GroupSort, Permute, ChunkSort, LoserMerge,
	MassageChunk, Payload, GroupScan, FilterScan, RowList, Gather, Aggregate,
	ShardFanout, ShardMerge,
}

// enabled gates every Fire call; off by default so production pays one
// atomic load per site.
var enabled atomic.Bool

var (
	mu    sync.RWMutex
	hooks = map[string]func(){}
)

// Enabled reports whether any hooks are installed.
func Enabled() bool { return enabled.Load() }

// Set installs fn as the hook of site and enables the registry. It
// returns a restore function that removes the hook (and disables the
// registry when no hooks remain); tests defer it.
func Set(site string, fn func()) (restore func()) {
	mu.Lock()
	hooks[site] = fn
	enabled.Store(true)
	mu.Unlock()
	return func() { Clear(site) }
}

// Source is the minimal PRNG surface SetProb draws from. The caller
// owns construction and seeding (tests and the chaos scheduler inject
// their own seeded generators), so this package stays free of math/rand
// and time-based seeding — the mcslint determinism analyzer holds.
// Implementations must be safe for use from the goroutines that reach
// the armed site; a site hook may fire from many pipeline workers at
// once.
type Source interface {
	Uint64() uint64
}

// SetProb installs fn at site but fires it only with probability p per
// Fire, drawing one uniform variate from src per visit. p >= 1 always
// fires (without consuming a variate), p <= 0 never fires. Like Set it
// enables the registry and returns a restore func.
//
// The variate is the top 53 bits of src.Uint64() scaled to [0,1) — the
// standard float64 construction — so an identically seeded src yields
// an identical fire/skip sequence for a deterministic visit order.
func SetProb(site string, p float64, src Source, fn func()) (restore func()) {
	return Set(site, func() {
		if p >= 1 {
			fn()
			return
		}
		if p <= 0 {
			return
		}
		if float64(src.Uint64()>>11)/(1<<53) < p {
			fn()
		}
	})
}

// Clear removes the hook of site; the registry switches off when the
// last hook is removed.
func Clear(site string) {
	mu.Lock()
	delete(hooks, site)
	if len(hooks) == 0 {
		enabled.Store(false)
	}
	mu.Unlock()
}

// Reset removes every hook and disables the registry.
func Reset() {
	mu.Lock()
	hooks = map[string]func(){}
	enabled.Store(false)
	mu.Unlock()
}

// Fire runs the hook installed at site, if any. One atomic load when
// the registry is disabled; the hook runs on the calling goroutine.
func Fire(site string) {
	if !enabled.Load() {
		return
	}
	mu.RLock()
	fn := hooks[site]
	mu.RUnlock()
	if fn != nil {
		fn()
	}
}
