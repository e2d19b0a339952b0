// The engine's own parallel passes: gatherParallel, a column's codes
// in selection order through its massage.Source (an aggregate column
// wider than 32 bits under an unlimited query, and the sort columns
// MaterializeSortInputsContext reads), and the aggregation sweep
// (aggregate, engine.go). Each is a pipeerr.Pass chunked across
// Options.Workers on 64-byte output lines: every chunk polls the
// context and fires its engine.gather / engine.aggregate faultinject
// site first, and a worker panic is contained into a
// *pipeerr.PipelineError that cancels its siblings.
package engine

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/massage"
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
// engine's own sequential row loops (a filtered page's row ids, the
// group-table sort).
const seqGatherCheckRows = pipeerr.BlockRows

// gatherParallel fills codes with src's codes in selection order, one
// range read per range, chunked across workers.
func gatherParallel(ctx context.Context, codes []uint64, src *massage.Source, workers int) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageGather, Round: -1, Site: faultinject.Gather, Align: lineAlign, MinRows: gatherMinRows}
	if pass.Parallel(len(codes), workers) {
		obsGatherRows.Add(int64(len(codes)))
	}
	return pass.Rows(ctx, len(codes), workers, func(lo, hi int) {
		src.Range(codes[lo:hi], lo)
	})
}
