// Parallel gather/scatter passes of the engine: ByteSlice-Lookup
// materialization (a batch gather through the selection vector, below;
// the aggregate column is gathered the same way) and the per-group
// aggregation scan (aggregate, engine.go) are chunked across workers
// when Options.Workers > 1. Chunks are output-contiguous and aligned to
// 64-byte cache lines, so workers never share a store line; all shared
// inputs (ByteSlices, the permutation, the selection vector) are
// read-only during the pass.
//
// Both are passes of the pipeline's one driver (pipeerr.Pass): every
// chunk polls the context and fires its engine.gather /
// engine.aggregate faultinject site first, so tests can poison exactly
// one chunk of one pass, and a worker panic is contained into a
// *pipeerr.PipelineError that cancels its siblings.
package engine

import (
	"context"

	"repro/internal/byteslice"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

var (
	obsGatherRows = obs.NewCounter("engine.parallel_gather_rows")
	obsAggGroups  = obs.NewCounter("engine.parallel_agg_groups")
)

// gatherMinRows is the selection size below which the gather runs
// sequentially.
const gatherMinRows = 4096

// lineAlign is 8 uint64 — one 64-byte cache line of output.
const lineAlign = 8

// seqGatherCheckRows is the stride between context polls of the
// engine's own sequential row loops (selection fill, group-table sort).
const seqGatherCheckRows = pipeerr.BlockRows

// gatherParallel fills codes[j] with bs's code at row rows[j] for every
// selected row, one batch Gather per range, chunked across workers.
func gatherParallel(ctx context.Context, codes []uint64, rows []uint32, bs *byteslice.BS, workers int) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageGather, Round: -1, Site: faultinject.Gather, Align: lineAlign, MinRows: gatherMinRows}
	if pass.Parallel(len(rows), workers) {
		obsGatherRows.Add(int64(len(rows)))
	}
	return pass.Rows(ctx, len(rows), workers, func(lo, hi int) {
		bs.Gather(codes[lo:hi], rows[lo:hi])
	})
}
