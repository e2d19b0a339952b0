package mcs

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// fourColumns builds the acceptance-criteria shape: n rows, four sort
// columns of mixed widths.
func fourColumns(n int, seed int64) []Column {
	rng := rand.New(rand.NewSource(seed))
	widths := []int{8, 12, 10, 14}
	cols := make([]Column, len(widths))
	for c, w := range widths {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(rng.Intn(1 << w))
		}
		cols[c] = Column{Codes: codes, Width: w}
	}
	return cols
}

// acceptancePlan keeps two substantial rounds in play so the sort has a
// permute pass and a long second round to cancel out of.
var acceptancePlan = Plan{Rounds: []Round{{Width: 22, Bank: 32}, {Width: 22, Bank: 32}}}

// TestSortContextPromptCancel is the acceptance criterion: cancelling a
// 1M-row, 4-column query mid-sort returns context.Canceled well under
// the remaining sort time, with zero leaked goroutines.
func TestSortContextPromptCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row acceptance test skipped in -short mode")
	}
	defer testutil.CheckNoLeaks(t)()
	const n = 1_000_000
	cols := fourColumns(n, 61)
	opts := &Options{Plan: &acceptancePlan, Workers: 4}

	// Baseline: how long the full sort takes on this machine.
	start := time.Now()
	if _, err := SortContext(context.Background(), cols, opts); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	// Cancel a fifth of the way in; the sort must unwind in far less
	// than the ~4/5 of the work it would otherwise still do.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	timer := time.AfterFunc(full/5, func() {
		cancelledAt = time.Now()
		cancel()
	})
	defer timer.Stop()
	res, err := SortContext(ctx, cols, opts)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sort must not return a result")
	}
	if cancelledAt.IsZero() {
		t.Fatal("sort finished before the cancel timer; baseline too fast for this test")
	}
	// "Well under remaining sort time": allow half the full duration
	// (the remaining work was ~4/5 of it), plus scheduler slack.
	if limit := full/2 + 100*time.Millisecond; returned.Sub(cancelledAt) > limit {
		t.Errorf("took %v to honor cancellation; limit %v (full sort %v)",
			returned.Sub(cancelledAt), limit, full)
	}
}

// TestSortContextDeadline pins DeadlineExceeded propagation.
func TestSortContextDeadline(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := SortContext(ctx, fourColumns(10_000, 67), &Options{Plan: &acceptancePlan, Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSortWorkerPanicIsPipelineError is the second acceptance criterion:
// an injected worker panic surfaces as a typed *mcs.PipelineError naming
// the stage — never a process crash.
func TestSortWorkerPanicIsPipelineError(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	cols := fourColumns(200_000, 71)
	restore := faultinject.Set(faultinject.Permute, func() { panic("injected fault") })
	defer restore()
	_, err := SortContext(context.Background(), cols, &Options{Plan: &acceptancePlan, Workers: 4})
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *mcs.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StagePermute {
		t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StagePermute)
	}
}

// TestSortBudget pins both halves of the MaxBytes contract at the public
// surface: an impossible budget refuses with ErrBudgetExceeded; a budget
// that only fits a reduced worker count still returns the exact same
// permutation as the unbudgeted sort.
func TestSortBudget(t *testing.T) {
	const n = 50_000
	cols := fourColumns(n, 73)
	opts := &Options{Plan: &acceptancePlan, Workers: 8}

	if _, err := Sort(cols, &Options{Plan: &acceptancePlan, Workers: 8, MaxBytes: 1024}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("tiny budget: err = %v, want ErrBudgetExceeded", err)
	}

	full, err := Sort(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential footprint plus one worker's scratch: forces degradation
	// below 8 workers without refusing.
	budget := engine.EstimatePipelineBytes(n, len(acceptancePlan.Rounds), 1) + 64<<10
	degraded, err := Sort(cols, &Options{Plan: &acceptancePlan, Workers: 8, MaxBytes: budget})
	if err != nil {
		t.Fatalf("degraded sort failed: %v", err)
	}
	if len(degraded.Perm) != len(full.Perm) {
		t.Fatal("degraded sort changed the result size")
	}
	for i := range full.Perm {
		if degraded.Perm[i] != full.Perm[i] {
			t.Fatalf("degraded sort diverges at %d", i)
		}
	}
}

// TestSortContextHappyPath pins that the context variant is the same
// sort: identical output to the context-free entry point.
func TestSortContextHappyPath(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	cols := fourColumns(30_000, 79)
	a, err := Sort(cols, &Options{Plan: &acceptancePlan, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SortContext(context.Background(), cols, &Options{Plan: &acceptancePlan, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Fatalf("SortContext diverges from Sort at %d", i)
		}
	}
}
