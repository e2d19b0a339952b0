// Per-round massage entry points for the LIMIT/OFFSET execution path
// (docs/topk.md). The full RunParallelContext pass materializes every
// round key for every row up front; a truncated sort only keeps a
// shrinking survivor prefix after round 0, so materializing later-round
// keys for eliminated rows is wasted FIP work. RunRoundParallelContext
// executes only the segments whose destination is one round, and
// RunRoundGatherContext fuses the lookup/permute step into the FIP pass
// by indexing the source codes through the survivor permutation — one
// read-modify-write stream per surviving row instead of
// permute-then-massage over all rows. Both run the one block loop
// (runBlocks): round 0 reads only the planes its own bits lie in, later
// rounds only the survivors' rows of them.
package massage

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
)

var (
	obsRoundRuns  = obs.NewCounter("massage.round_runs")
	obsGatherRuns = obs.NewCounter("massage.gather_fused_runs")
)

// RunRoundParallelContext massages only round d's key array for rows
// rows — the other rounds' segments are not executed — with the rows
// partitioned across workers goroutines, and cancellation and
// containment, exactly like RunParallelContext. A worker panic surfaces
// as a *pipeerr.PipelineError with stage "massage" and round d. Of a
// ByteSlice-backed input only the planes round d's bits lie in are
// read, gatherBlock rows at a time.
func (p *Program) RunRoundParallelContext(ctx context.Context, inputs []Input, rows, d, workers int) ([]uint64, error) {
	obsRoundRuns.Inc()
	return p.runRound(ctx, inputs, nil, rows, d, workers)
}

// RunRoundGatherContext massages round d's key for the surviving rows
// named by perm: out[i] is row perm[i]'s round-d key. This fuses the
// truncated pipeline's gather into the FIP pass — the permute step that
// would first reorder all codes is skipped entirely, and only
// len(perm) rows are touched; a ByteSlice-backed input's planes are
// read at the rows the positions perm names map to. Cancellation and
// containment match RunRoundParallelContext.
func (p *Program) RunRoundGatherContext(ctx context.Context, inputs []Input, perm []uint32, d, workers int) ([]uint64, error) {
	obsGatherRuns.Inc()
	return p.runRound(ctx, inputs, perm, len(perm), d, workers)
}

// runRound runs the segments feeding round d over rows rows — positions
// of perm when it is non-nil — and returns round d's keys, or an error
// when d is out of range.
func (p *Program) runRound(ctx context.Context, inputs []Input, perm []uint32, rows, d, workers int) ([]uint64, error) {
	if d < 0 || d >= p.nRounds {
		return nil, fmt.Errorf("massage: round %d out of range [0,%d)", d, p.nRounds)
	}
	// Compile emits the segments round by round.
	first := sort.Search(len(p.segments), func(i int) bool { return p.segments[i].dst >= d })
	end := sort.Search(len(p.segments), func(i int) bool { return p.segments[i].dst > d })
	segs := p.segments[first:end]
	out := make([][]uint64, p.nRounds) // indexed by round, as runBlocks writes it
	out[d] = make([]uint64, rows)
	if err := forEachChunk(ctx, rows, workers, d, func(lo, hi int) { runBlocks(segs, inputs, out, perm, lo, hi) }); err != nil {
		return nil, err
	}
	return out[d], nil
}
