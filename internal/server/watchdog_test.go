package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// TestWatchdogKillsStuckQuery wedges a query with a fault-injected
// delay far past its predicted cost and asserts the per-query watchdog
// force-cancels it: the job fails with the typed pipeerr.ErrWatchdog
// (retryable, kind "watchdog", NOT a bare context error), the kill is
// bounded in wall-clock, and no goroutine outlives the test.
func TestWatchdogKillsStuckQuery(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	// The massage-chunk hook sleeps well past the watchdog budget. The sleep
	// itself is uncancellable, so the watchdog's cancel is observed at
	// the next pipeline poll after the hook returns — exactly the
	// stuck-operator shape the watchdog exists for.
	defer faultinject.Set(faultinject.MassageChunk, func() {
		time.Sleep(400 * time.Millisecond)
	})()

	tbl := testTPCH(t, 2000)
	// Tiny floor and multiplier: predicted cost for 2000 rows is far
	// under the injected 400ms stall, so the watchdog must fire.
	srv := newTestServer(t, Config{
		WatchdogMult:  1,
		WatchdogFloor: 30 * time.Millisecond,
	}, tbl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	req := QueryRequest{Table: tbl.Name, Kind: "orderby", SortCols: []SortColReq{{Name: "l_returnflag"}}, Workers: 1}
	start := time.Now()
	_, err := srv.Run(context.Background(), req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stuck query succeeded; watchdog never fired")
	}
	if !errors.Is(err, pipeerr.ErrWatchdog) {
		t.Fatalf("error = %v, want pipeerr.ErrWatchdog", err)
	}
	if pipeerr.IsCtxErr(err) {
		t.Error("watchdog kill must not read as a caller cancellation")
	}
	if !pipeerr.Retryable(err) {
		t.Error("watchdog kill must be retryable")
	}
	if kind, _, _ := Classify(err); kind != "watchdog" {
		t.Errorf("kind = %q, want watchdog", kind)
	}
	// The kill happens once the wedged hook returns (~400ms); it must
	// not wait for anything slower.
	if elapsed > 5*time.Second {
		t.Errorf("watchdog kill took %v", elapsed)
	}
}

// TestWatchdogSparesHealthyQuery is the negative: an unwedged query on
// the same tight watchdog settings completes, because the budget is
// extended with the plan's predicted cost and healthy execution fits.
func TestWatchdogSparesHealthyQuery(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 2000)
	srv := newTestServer(t, Config{
		WatchdogMult:  200,
		WatchdogFloor: 2 * time.Second,
	}, tbl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	req := QueryRequest{Table: tbl.Name, Kind: "orderby", SortCols: []SortColReq{{Name: "l_returnflag"}}, Workers: 2}
	res, err := srv.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("healthy query under watchdog: %v", err)
	}
	if res.Rows != tbl.N {
		t.Errorf("rows = %d, want %d", res.Rows, tbl.N)
	}
}

// TestWatchdogExtendOnlyRaises pins the budget monotonicity contract:
// extend never shrinks an armed budget, so a cheap re-plan cannot
// tighten the noose on a query already granted more time.
func TestWatchdogExtendOnlyRaises(t *testing.T) {
	_, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := startWatchdog(cancel, time.Hour)
	defer w.stop()
	w.extend(time.Minute) // lower: must be ignored
	w.mu.Lock()
	got := w.budget
	w.mu.Unlock()
	if got != time.Hour {
		t.Errorf("budget = %v, want 1h (extend must not shrink)", got)
	}
	w.extend(2 * time.Hour)
	w.mu.Lock()
	got = w.budget
	w.mu.Unlock()
	if got != 2*time.Hour {
		t.Errorf("budget = %v, want 2h", got)
	}
	cancel(nil)
}

// TestWatchdogFireRechecksBudget drives the timer's callback directly:
// an expiry that lands after an extension (the timer was already
// running fire when extend re-armed it) must not kill the query; one
// past the budget kills it with the typed cause, once; after stop
// nothing fires. Concurrent extensions against a firing timer must not
// race (run under -race).
func TestWatchdogFireRechecksBudget(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := startWatchdog(cancel, time.Hour)
	defer w.stop()
	w.extend(2 * time.Hour)
	w.fire() // an expiry that raced the extension
	if ctx.Err() != nil {
		t.Fatalf("killed within its budget: %v", context.Cause(ctx))
	}
	w.mu.Lock()
	w.start = time.Now().Add(-3 * time.Hour)
	w.mu.Unlock()
	w.fire()
	if cause := context.Cause(ctx); !errors.Is(cause, pipeerr.ErrWatchdog) {
		t.Fatalf("past the budget: cause %v, want pipeerr.ErrWatchdog", cause)
	}

	ctx2, cancel2 := context.WithCancelCause(context.Background())
	defer cancel2(nil)
	w2 := startWatchdog(cancel2, time.Hour)
	w2.stop()
	w2.mu.Lock()
	w2.start = time.Now().Add(-3 * time.Hour)
	w2.mu.Unlock()
	w2.fire()
	if ctx2.Err() != nil {
		t.Fatal("a stopped watchdog killed its query")
	}

	_, cancel3 := context.WithCancelCause(context.Background())
	defer cancel3(nil)
	w3 := startWatchdog(cancel3, time.Microsecond)
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				w3.extend(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	w3.stop()
}
