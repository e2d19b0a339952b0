package mcsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
	"repro/internal/testutil"
)

// cancelInputs builds a two-column input; from mergesort.ParallelMinRows
// rows on, round 0 sorts in parallel.
func cancelInputs(rows int, seed int64) []massage.Input {
	rng := rand.New(rand.NewSource(seed))
	inputs := []massage.Input{
		{Codes: make([]uint64, rows), Width: 9},
		{Codes: make([]uint64, rows), Width: 13},
	}
	for i := 0; i < rows; i++ {
		inputs[0].Codes[i] = uint64(rng.Intn(64))
		inputs[1].Codes[i] = uint64(rng.Intn(4096))
	}
	return inputs
}

// twoRoundPlan keeps a lookup/permute pass and a group-sort round in
// play, so the permute and group-sort sites are reachable.
var twoRoundPlan = plan.Plan{Rounds: []plan.Round{{Width: 9, Bank: 16}, {Width: 13, Bank: 16}}}

// TestCancelAtEverySite fires a cancellation from every faultinject
// site, at every worker count: if the site was reached the sort must
// return the context error promptly; if the pipeline shape never
// reaches the site (e.g. the loser merge, which only the paper kernel
// and the shard merge reach), the sort must simply succeed. Either way
// no goroutine may leak.
func TestCancelAtEverySite(t *testing.T) {
	defer faultinject.Reset()
	inputs := cancelInputs(20000, 29)
	for _, site := range faultinject.Sites {
		for _, workers := range []int{1, 4, 8} {
			site, workers := site, workers
			t.Run(fmt.Sprintf("%s/workers=%d", site, workers), func(t *testing.T) {
				defer testutil.CheckNoLeaks(t)()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var fired atomic.Bool
				restore := faultinject.Set(site, func() {
					fired.Store(true)
					cancel()
				})
				defer restore()
				res, err := ExecuteContext(ctx, inputs, twoRoundPlan,
					Options{Workers: workers})
				if fired.Load() {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("site fired but err = %v, want context.Canceled", err)
					}
					if res != nil {
						t.Fatal("cancelled sort must not return a result")
					}
				} else if err != nil {
					t.Fatalf("site never fired but err = %v", err)
				}
			})
		}
	}
}

// TestCancelledContextRefusedUpfront pins the fast path: an already
// cancelled context returns before any work.
func TestCancelledContextRefusedUpfront(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteContext(ctx, cancelInputs(1000, 3), twoRoundPlan, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWorkerPanicContainedAsPipelineError injects a panic at the sites
// that fire inside parallel workers — round 0's count and scatter
// chunks and the permute chunks: it must surface
// as a typed *pipeerr.PipelineError naming the stage — never crash the
// process — and leak no goroutines.
func TestWorkerPanicContainedAsPipelineError(t *testing.T) {
	defer faultinject.Reset()
	inputs := cancelInputs(20000, 31)
	for site, want := range map[string]struct {
		stage    string
		minRound int
	}{
		faultinject.ChunkSort: {pipeerr.StageSort, -1},   // mergesort's passes belong to no round
		faultinject.Permute:   {pipeerr.StagePermute, 1}, // permute only runs after round 0
	} {
		check := testutil.CheckNoLeaks(t)
		restore := faultinject.Set(site, func() { panic("injected fault") })
		_, err := ExecuteContext(context.Background(), inputs, twoRoundPlan,
			Options{Workers: 4})
		restore()
		var pe *pipeerr.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %T %v, want *pipeerr.PipelineError", site, err, err)
		}
		if pe.Stage != want.stage || pe.Round < want.minRound {
			t.Errorf("%s: contained at stage %q round %d, want %q round >= %d", site, pe.Stage, pe.Round, want.stage, want.minRound)
		}
		check()
	}
}

// TestSortWorkerPanicContained injects the panic in the massage chunk
// workers that build the sort's round keys.
func TestSortWorkerPanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	inputs := cancelInputs(20000, 37)
	// GroupSort fires on the caller goroutine at the round boundary;
	// panic instead in the massage chunk workers, which run under the
	// pipeline group.
	restore := faultinject.Set(faultinject.MassageChunk, func() { panic("injected massage fault") })
	defer restore()
	_, err := ExecuteContext(context.Background(), inputs, twoRoundPlan,
		Options{Workers: 4})
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StageMassage {
		t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StageMassage)
	}
}

// TestDeterministicAfterCancelledRun pins that a cancelled run leaves
// no state behind: a subsequent complete run produces output
// byte-identical to a run that was never preceded by a cancellation.
func TestDeterministicAfterCancelledRun(t *testing.T) {
	defer faultinject.Reset()
	inputs := cancelInputs(20000, 41)
	opts := Options{Workers: 4}

	var baseline *Result
	var err error
	if testutil.Bumps(func() { baseline, err = ExecuteContext(context.Background(), inputs, twoRoundPlan, opts) }, "mergesort.parallel_sorts")[0] == 0 {
		t.Fatal("round 0 did not sort in parallel")
	}
	if err != nil {
		t.Fatal(err)
	}

	// Cancel one run mid-sort from the group-sort site and one from the
	// permute pass, which has already reordered some keys...
	for _, site := range []string{faultinject.GroupSort, faultinject.Permute} {
		ctx, cancel := context.WithCancel(context.Background())
		restore := faultinject.Set(site, cancel)
		res, err := ExecuteContext(ctx, inputs, twoRoundPlan, opts)
		restore()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("run cancelled at %s: result %v, err = %v", site, res != nil, err)
		}
	}

	// ...then re-run clean: the result must match the baseline exactly.
	again, err := ExecuteContext(context.Background(), inputs, twoRoundPlan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Perm) != len(baseline.Perm) || len(again.Groups) != len(baseline.Groups) {
		t.Fatal("shape differs after a cancelled run")
	}
	for i := range again.Perm {
		if again.Perm[i] != baseline.Perm[i] {
			t.Fatalf("Perm diverges at %d after a cancelled run", i)
		}
	}
	for i := range again.Groups {
		if again.Groups[i] != baseline.Groups[i] {
			t.Fatalf("Groups diverge at %d after a cancelled run", i)
		}
	}
}

// TestSequentialGiantGroupCancel pins invariant 4 of docs/robustness.md
// on the sequential later-round path: a round whose rows all tie into
// one group is one whole sort, so the context must reach the sort
// itself. Cancelled before the round, or only after the group's sort
// has started (past the round's own polls and the sort's entry poll),
// the round returns context.Canceled with keys and perm untouched. The
// poll budget of a many-small-groups round is pinned alongside, in the
// pass driver's units: one classification poll plus one per range — a
// batch of groupBatchRows rows — never one per group, and a
// cancellation landing mid-round stops the round within one batch.
func TestSequentialGiantGroupCancel(t *testing.T) {
	const n = 1<<16 + 4096
	rng := rand.New(rand.NewSource(41))
	keys := make([]uint64, n)
	perm := make([]uint32, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 16))
		perm[i] = uint32(i)
	}
	wantKeys := append([]uint64(nil), keys...)
	wantPerm := append([]uint32(nil), perm...)
	var sp mergesort.Params
	oneGroup := []int32{0, n}

	// The group is dominant and goes to the parallel radix sort's
	// sequential path, under the real context.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"pre-cancelled":     cancelled,
		"mid-sort dominant": testutil.NewPollCtx(1 + 1 + 1), // the classification poll, the sort's entry poll, its first scatter
	} {
		_, err := parallelGroupSort(ctx, 16, keys, perm, oneGroup, 1, sp, 1)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		for i := range keys {
			if keys[i] != wantKeys[i] || perm[i] != wantPerm[i] {
				t.Fatalf("%s: cancelled round modified its input at %d", name, i)
			}
		}
	}

	// n/32 groups of 32 rows: a batch is exactly groupBatchRows/32 of
	// them. A 32-row group is below the kernel's small-run cutoff, so its
	// sort polls on entry only — under the uncancellable context, which
	// the counter never sees.
	small := make([]int32, 0, n/32+1)
	for lo := 0; lo <= n; lo += 32 {
		small = append(small, int32(lo))
	}
	const batches = (n + groupBatchRows - 1) / groupBatchRows
	const budget = 1 + batches // the classification poll, one per batch

	// Cancelled at the poll before the fourth batch: exactly three
	// batches are sorted, the rest of the round is untouched.
	const claimed = 3
	_, err := parallelGroupSort(testutil.NewPollCtx(1+claimed), 16, keys, perm, small, 1, sp, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-round: err = %v, want context.Canceled", err)
	}
	for i := claimed * groupBatchRows; i < n; i++ {
		if keys[i] != wantKeys[i] || perm[i] != wantPerm[i] {
			t.Fatalf("mid-round: row %d was sorted after the cancellation, %d rows past the last claimed batch", i, i-claimed*groupBatchRows)
		}
	}

	if _, err := parallelGroupSort(testutil.NewPollCtx(budget), 16, keys, perm, small, 1, sp, 1); err != nil {
		t.Fatalf("small groups: %v after more than %d polls", err, budget)
	}
}

// TestSequentialPermuteCancel pins the lookup/reorder pass at one worker
// to the cadence of every other sequential row pass: it polls (and
// visits its fault site) once per pipeerr.BlockRows block instead of
// once for the whole array, so a cancellation on the second poll
// returns ctx.Err() with nothing written past the first block.
func TestSequentialPermuteCancel(t *testing.T) {
	defer faultinject.Reset()
	const n = 3*pipeerr.BlockRows + 5
	src := make([]uint64, n)
	perm := make([]uint32, n)
	for i := range src {
		src[i], perm[i] = uint64(i)+1, uint32(n-1-i)
	}
	var visits atomic.Int64
	faultinject.Set(faultinject.Permute, func() { visits.Add(1) })

	dst := make([]uint64, n)
	if err := parallelPermute(testutil.NewPollCtx(1), dst, src, perm, nil, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, v := range dst {
		if written := v != 0; written != (i < pipeerr.BlockRows) {
			t.Fatalf("dst[%d] written = %v after a cancellation on the second poll", i, written)
		}
	}
	if got := visits.Load(); got != 1 {
		t.Errorf("%d permute visits before the cancellation, want 1", got)
	}

	visits.Store(0)
	if err := parallelPermute(testutil.NewPollCtx(4), dst, src, perm, nil, 1, 1); err != nil {
		t.Fatalf("%v within a budget of one poll per block", err)
	}
	for i, v := range dst {
		if v != src[perm[i]] {
			t.Fatalf("dst[%d] = %d, want %d", i, v, src[perm[i]])
		}
	}
	if got := visits.Load(); got != 4 {
		t.Errorf("%d permute visits over four blocks, want 4", got)
	}
}
