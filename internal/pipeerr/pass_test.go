package pipeerr

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// TestCutCoversOnceAligned pins the one cut rule: at most workers
// ranges that cover [0, n) exactly once, every interior bound a
// multiple of the alignment — 2^14+1 rows at alignment 256 used to give
// two workers a one-row third chunk.
func TestCutCoversOnceAligned(t *testing.T) {
	for _, align := range []int{1, 8, 256} {
		for _, n := range []int{0, 1, align - 1, align, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<14 + 1} {
			for _, workers := range []int{1, 2, 3, 8} {
				bounds := Cut(n, workers, align)
				tag := fmt.Sprintf("Cut(%d, %d, %d) = %v", n, workers, align, bounds)
				if ranges := len(bounds) - 1; ranges > workers || (n > 0) != (ranges > 0) {
					t.Fatalf("%s: %d ranges", tag, ranges)
				}
				if bounds[0] != 0 || bounds[len(bounds)-1] != n && n > 0 {
					t.Fatalf("%s: does not span [0, n)", tag)
				}
				for i := 1; i < len(bounds); i++ {
					if bounds[i] <= bounds[i-1] {
						t.Fatalf("%s: empty or reversed range %d", tag, i-1)
					}
					if i+1 < len(bounds) && bounds[i]%align != 0 {
						t.Fatalf("%s: interior bound %d not aligned", tag, bounds[i])
					}
				}
			}
		}
	}
}

// TestRowsVisitsEveryRowOnce pins the row pass on both sides of its
// threshold: every row is handed to run exactly once, and the pass's
// site is visited once per range — BlockRows blocks on the caller's
// goroutine, one cut range per worker otherwise.
func TestRowsVisitsEveryRowOnce(t *testing.T) {
	defer faultinject.Reset()
	var visits atomic.Int64
	faultinject.Set(faultinject.Gather, func() { visits.Add(1) })
	pass := Pass{Stage: StageGather, Round: -1, Site: faultinject.Gather, Align: 8, MinRows: 1024}
	for _, n := range []int{0, 1, 1023, 1024, BlockRows + 1, 3*BlockRows + 5} {
		for _, workers := range []int{1, 2, 3, 8} {
			seen := make([]int32, n)
			visits.Store(0)
			err := pass.Rows(context.Background(), n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: row %d visited %d times", n, workers, i, c)
				}
			}
			want := (n + BlockRows - 1) / BlockRows
			if pass.Parallel(n, workers) {
				want = len(Cut(n, workers, pass.Align)) - 1
			}
			if got := int(visits.Load()); got != want {
				t.Errorf("n=%d workers=%d: %d site visits, want one per range = %d", n, workers, got, want)
			}
		}
	}
}

// TestRangesRunsEachOnce: more ranges than workers are all run exactly
// once, in either mode, with one site visit per range.
func TestRangesRunsEachOnce(t *testing.T) {
	defer faultinject.Reset()
	var visits atomic.Int64
	faultinject.Set(faultinject.ChunkSort, func() { visits.Add(1) })
	pass := Pass{Stage: StageSort, Round: 2, Site: faultinject.ChunkSort}
	const n = 50
	for _, workers := range []int{1, 3, 64} {
		var ran [n]atomic.Int32
		visits.Store(0)
		err := pass.Ranges(context.Background(), workers, n, func(_ context.Context, i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Errorf("workers=%d: range %d ran %d times", workers, i, c)
			}
		}
		if got := visits.Load(); got != n {
			t.Errorf("workers=%d: %d site visits for %d ranges", workers, got, n)
		}
	}
}

// TestRangesCancel: a cancellation observed at range r starts no later
// range and comes back as ctx.Err(). On the caller's goroutine the poll
// budget is exactly one per range; in a Group a sibling may already
// hold the next claim, nothing beyond it.
func TestRangesCancel(t *testing.T) {
	pass := Pass{Stage: StageSort, Round: 0}
	const n, r = 20, 3

	var ran atomic.Int64
	err := pass.Ranges(testutil.NewPollCtx(r), 1, n, func(context.Context, int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || ran.Load() != r {
		t.Errorf("sequential: err = %v after %d ranges, want context.Canceled after %d", err, ran.Load(), r)
	}
	if err := pass.Ranges(testutil.NewPollCtx(n), 1, n, func(context.Context, int) error { return nil }); err != nil {
		t.Errorf("sequential: %v within a budget of one poll per range", err)
	}
	if err := pass.Ranges(testutil.NewPollCtx(0), 1, 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("no ranges: err = %v, want the context's", err)
	}

	const workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last atomic.Int64
	err = pass.Ranges(ctx, workers, n, func(gctx context.Context, i int) error {
		for m := last.Load(); int64(i) > m && !last.CompareAndSwap(m, int64(i)); m = last.Load() {
		}
		if i == r {
			cancel()
		} else if i > r {
			<-gctx.Done() // hold the sibling's claim until the cancel lands
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("parallel: err = %v, want context.Canceled", err)
	}
	if got := last.Load(); got >= r+workers {
		t.Errorf("parallel: range %d started after range %d cancelled the pass", got, r)
	}
}

// TestRangesPanicContained: a panicking range surfaces as a
// *PipelineError with the pass's stage and round and a real worker
// index, and cancels its siblings (which here wait for exactly that);
// at one worker it is worker 0's and ends the pass.
func TestRangesPanicContained(t *testing.T) {
	pass := Pass{Stage: StagePermute, Round: 4}
	err := pass.Ranges(context.Background(), 3, 6, func(gctx context.Context, i int) error {
		if i == 2 {
			panic("range poisoned")
		}
		select {
		case <-gctx.Done():
			return gctx.Err()
		case <-time.After(5 * time.Second):
			return errors.New("sibling never cancelled")
		}
	})
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PipelineError", err, err)
	}
	if pe.Stage != StagePermute || pe.Round != 4 || pe.Worker < 0 || pe.Err.Error() != "panic: range poisoned" {
		t.Errorf("contained as %s/%d/%d: %v", pe.Stage, pe.Round, pe.Worker, pe.Err)
	}

	// On the caller's goroutine the panic is contained the same way, as
	// worker 0's, and no later range runs.
	ran := 0
	err = pass.Ranges(context.Background(), 1, 6, func(_ context.Context, i int) error {
		ran++
		if i == 2 {
			panic("range poisoned")
		}
		return nil
	})
	if !errors.As(err, &pe) {
		t.Fatalf("sequential: err = %T %v, want *PipelineError", err, err)
	}
	if pe.Stage != StagePermute || pe.Round != 4 || pe.Worker != 0 || pe.Err.Error() != "panic: range poisoned" || ran != 3 {
		t.Errorf("sequential: contained as %s/%d/%d after %d ranges: %v", pe.Stage, pe.Round, pe.Worker, ran, pe.Err)
	}
}

// TestBusyOnlyWhenAsked: busy time exists only for a traced parallel
// phase, is added by every range of a pass that carries it, and is
// published as busy/(workers × wall).
func TestBusyOnlyWhenAsked(t *testing.T) {
	gauge := obs.NewGauge("pipeerr.test_efficiency_x1000")
	if StartBusy(4) != nil {
		t.Fatal("busy accounting started with tracing off")
	}
	(*Busy)(nil).Publish(gauge) // the untraced phase publishes nothing
	obs.Enable()
	defer obs.Disable()
	if StartBusy(1) != nil {
		t.Fatal("busy accounting started for a sequential phase")
	}
	busy := StartBusy(2)
	work := func(context.Context, int) error { time.Sleep(time.Millisecond); return nil }
	if err := (Pass{Stage: StageSort}).Ranges(context.Background(), 2, 4, work); err != nil {
		t.Fatal(err)
	}
	if got := busy.ns.Load(); got != 0 {
		t.Errorf("a pass without Busy accumulated %d ns", got)
	}
	if err := (Pass{Stage: StageSort, Busy: busy}).Ranges(context.Background(), 2, 4, work); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(busy.ns.Load()); got < 4*time.Millisecond {
		t.Errorf("four 1 ms ranges accumulated %v", got)
	}
	busy.Publish(gauge)
	if got := gauge.Value(); got <= 0 || got > 1000 {
		t.Errorf("efficiency gauge = %d, want in (0, 1000]", got)
	}
}
