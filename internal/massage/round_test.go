package massage

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
)

// seqCheckRows is the block size of a pass on the caller's goroutine.
const seqCheckRows = pipeerr.BlockRows

// wantChunks is the MassageChunk visit count of one pass: one per
// seqCheckRows block on the sequential path, one per cache-line-aligned
// worker chunk on the parallel path. The chaos batteries count these
// visits, so the shared driver must not shift them.
func wantChunks(rows, workers int) int {
	if workers < 2 || rows < parallelMinRows {
		return (rows + seqCheckRows - 1) / seqCheckRows
	}
	chunk := ((rows+workers-1)/workers + chunkAlign - 1) / chunkAlign * chunkAlign
	return (rows + chunk - 1) / chunk
}

// TestRoundEntryPointsMatchFullPass pins the three entry points to each
// other over worker counts and row counts straddling both driver
// thresholds: a one-round pass equals that round of the all-rounds
// pass, a gather-fused pass equals gathering the codes first and then
// massaging the round, and every pass visits MassageChunk exactly once
// per row range.
func TestRoundEntryPointsMatchFullPass(t *testing.T) {
	defer faultinject.Reset()
	var visits atomic.Int64
	faultinject.Set(faultinject.MassageChunk, func() { visits.Add(1) })
	counted := func(what string, rows, workers int, run func() error) {
		t.Helper()
		visits.Store(0)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, want := int(visits.Load()), wantChunks(rows, workers); got != want {
			t.Errorf("%s: %d MassageChunk visits, want %d", what, got, want)
		}
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	outWidths := []int{25, 20}
	for _, rows := range []int{0, 1, parallelMinRows - 1, parallelMinRows, parallelMinRows + 1,
		seqCheckRows - 1, seqCheckRows, seqCheckRows + 1, 2*seqCheckRows + 5} {
		inputs := randInputs(rng, []int{9, 22, 14}, rows)
		inputs[1].Desc = true
		prog, err := Compile(inputs, outWidths)
		if err != nil {
			t.Fatal(err)
		}
		// The survivors of a truncated sort: a shuffled prefix-sized
		// subset of the rows.
		perm := make([]uint32, rows)
		for i := range perm {
			perm[i] = uint32(i)
		}
		rng.Shuffle(rows, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		perm = perm[:rows-rows/3]
		gathered := make([]Input, len(inputs))
		for c, in := range inputs {
			codes := make([]uint64, len(perm))
			for i, oid := range perm {
				codes[i] = in.Codes[oid]
			}
			gathered[c] = Input{Codes: codes, Width: in.Width, Desc: in.Desc}
		}

		for _, workers := range []int{1, 2, 3, 8} {
			tag := fmt.Sprintf("rows=%d workers=%d", rows, workers)
			var full [][]uint64
			counted(tag+" full", rows, workers, func() (err error) {
				full, err = prog.RunParallelContext(ctx, inputs, rows, workers)
				return err
			})
			for d := range outWidths {
				var round, fused, gatherThenRound []uint64
				counted(tag+" round", rows, workers, func() (err error) {
					round, err = prog.RunRoundParallelContext(ctx, inputs, rows, d, workers)
					return err
				})
				counted(tag+" gather", len(perm), workers, func() (err error) {
					fused, err = prog.RunRoundGatherContext(ctx, inputs, perm, d, workers)
					return err
				})
				counted(tag+" gather-then-round", len(perm), workers, func() (err error) {
					gatherThenRound, err = prog.RunRoundParallelContext(ctx, gathered, len(perm), d, workers)
					return err
				})
				if len(round) != rows || len(fused) != len(perm) {
					t.Fatalf("%s round %d: got %d and %d keys, want %d and %d", tag, d, len(round), len(fused), rows, len(perm))
				}
				for i := range round {
					if round[i] != full[d][i] {
						t.Fatalf("%s round %d row %d: one-round pass %#x, full pass %#x", tag, d, i, round[i], full[d][i])
					}
				}
				for i := range fused {
					if fused[i] != gatherThenRound[i] {
						t.Fatalf("%s round %d row %d: fused gather %#x, gather-then-round %#x", tag, d, i, fused[i], gatherThenRound[i])
					}
				}
			}
		}
	}
	if _, err := (&Program{nRounds: 2}).RunRoundParallelContext(ctx, nil, 0, 2, 1); err == nil {
		t.Error("out-of-range round accepted")
	}
}
