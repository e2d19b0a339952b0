package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
	"repro/internal/planner"
	"repro/internal/testutil"
)

func cancelQuery() Query {
	return Query{
		ID:       "cancel",
		Kind:     planner.GroupBy,
		SortCols: []SortCol{{Name: "a"}, {Name: "b"}},
		Agg:      &Agg{Kind: Sum, Col: "v"},
	}
}

// TestRunContextCancelAtSites cancels from the engine's gather and
// aggregate sites and massage's chunk site at several worker counts: a
// fired site must yield context.Canceled promptly with no leaked
// goroutines. Which sites a query reaches depends on its kind: a
// truncated sort reads the ByteSlices itself, so a window query under a
// limit never gathers, and a GROUP BY under one gathers only its
// survivors, after the sort. The unlimited GROUP BY's subtests carry no
// kind prefix.
func TestRunContextCancelAtSites(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable(t, 8000, 21)
	lim := 5
	window := Query{ID: "cancel-window", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}}, Window: &Window{OrderCol: "c"}}
	for _, tc := range []struct {
		name  string
		q     Query
		limit *int
		fires map[string]bool
	}{
		{"", cancelQuery(), nil, map[string]bool{faultinject.Gather: true, faultinject.MassageChunk: true, faultinject.Aggregate: true}},
		{"groupby-limit", cancelQuery(), &lim, map[string]bool{faultinject.Gather: true, faultinject.MassageChunk: true, faultinject.Aggregate: true}},
		{"window", window, nil, map[string]bool{faultinject.Gather: true, faultinject.MassageChunk: true}},
		{"window-limit", window, &lim, map[string]bool{faultinject.MassageChunk: true}},
	} {
		for _, site := range []string{faultinject.Gather, faultinject.MassageChunk, faultinject.Aggregate} {
			for _, workers := range []int{1, 4, 8} {
				tc, site, workers := tc, site, workers
				name := fmt.Sprintf("%s/workers=%d", site, workers)
				if tc.name != "" {
					name = tc.name + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					defer testutil.CheckNoLeaks(t)()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var fired atomic.Bool
					restore := faultinject.Set(site, func() {
						fired.Store(true)
						cancel()
					})
					defer restore()
					res, err := RunContext(ctx, tbl, tc.q, Options{Workers: workers, Limit: tc.limit})
					if fired.Load() != tc.fires[site] {
						t.Fatalf("site fired = %v, want %v", fired.Load(), tc.fires[site])
					}
					if fired.Load() {
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("site fired but err = %v, want context.Canceled", err)
						}
						if res != nil {
							t.Fatal("cancelled query must not return a result")
						}
					} else if err != nil {
						t.Fatalf("site never fired but err = %v", err)
					}
				})
			}
		}
	}
}

// TestRunContextLimitedCancelAtTopKSite cancels a LIMIT query from the
// top-K sort's chunk site, which its cut and compaction fire at every
// worker count: the limited pipeline must unwind with context.Canceled and leak
// nothing.
func TestRunContextLimitedCancelAtTopKSite(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable(t, 8000, 25)
	q := Query{
		ID:       "cancel-limited",
		Kind:     planner.PartitionBy,
		SortCols: []SortCol{{Name: "a"}},
		Window:   &Window{OrderCol: "v"},
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckNoLeaks(t)()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var fired atomic.Bool
			restore := faultinject.Set(faultinject.ChunkSort, func() {
				fired.Store(true)
				cancel()
			})
			defer restore()
			lim := 10
			opts := limitOptions(workers)
			opts.Limit = &lim
			res, err := RunContext(ctx, tbl, q, opts)
			if fired.Load() {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("site fired but err = %v, want context.Canceled", err)
				}
				if res != nil {
					t.Fatal("cancelled query must not return a result")
				}
			} else if err != nil {
				t.Fatalf("site never fired but err = %v", err)
			}
		})
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := makeTable(t, 1000, 22)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, tbl, cancelQuery(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAggregatePanicContained injects a panic into the parallel
// aggregation workers: the query must fail with a typed
// *pipeerr.PipelineError naming the aggregate stage, not crash.
func TestAggregatePanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	tbl := makeTable(t, 8000, 23)
	restore := faultinject.Set(faultinject.Aggregate, func() { panic("injected aggregate fault") })
	defer restore()
	// workers=4 routes aggregation through the group-parallel path
	// (thousands of (a,b) groups >= 2*workers), where the site fires
	// inside pipeline workers.
	_, err := RunContext(context.Background(), tbl, cancelQuery(), Options{Workers: 4})
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StageAggregate {
		t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StageAggregate)
	}
}

// TestGatherPanicContained injects the panic into the materialization
// gather workers instead.
func TestGatherPanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	tbl := makeTable(t, 8000, 24)
	restore := faultinject.Set(faultinject.Gather, func() { panic("injected gather fault") })
	defer restore()
	_, err := RunContext(context.Background(), tbl, cancelQuery(), Options{Workers: 4})
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StageGather {
		t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StageGather)
	}
}

// TestFusedGatherPanicContained injects a panic into round 0 of a
// truncated window query, whose massage gathers its source columns
// straight from the ByteSlices: the failure is contained as stage
// massage, round 0, with no goroutine left behind. Containment is a
// property of the pipeline's workers, so the pass runs parallel.
func TestFusedGatherPanicContained(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable(t, 8000, 28)
	q := Query{ID: "fused", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}, {Name: "b"}}, Window: &Window{OrderCol: "c"}}
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckNoLeaks(t)()
			restore := faultinject.Set(faultinject.MassageChunk, func() { panic("injected massage fault") })
			defer restore()
			lim := 10
			_, err := RunContext(context.Background(), tbl, q, Options{Workers: workers, Limit: &lim})
			var pe *pipeerr.PipelineError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
			}
			if pe.Stage != pipeerr.StageMassage || pe.Round != 0 {
				t.Errorf("stage %q round %d, want %q round 0", pe.Stage, pe.Round, pipeerr.StageMassage)
			}
		})
	}
}

// TestBudgetRefusedWhenTooSmall pins the typed refusal: a budget too
// small for even sequential execution returns ErrBudgetExceeded and
// names the query.
func TestBudgetRefusedWhenTooSmall(t *testing.T) {
	tbl := makeTable(t, 8000, 25)
	_, err := RunContext(context.Background(), tbl, cancelQuery(), Options{Workers: 4, MaxBytes: 1024})
	if !errors.Is(err, pipeerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetDegradesWorkers pins graceful degradation: a budget that
// fits sequential execution but not the full worker complement must
// succeed with fewer effective workers — and produce the same result.
func TestBudgetDegradesWorkers(t *testing.T) {
	tbl := makeTable(t, 8000, 26)
	q := cancelQuery()

	full, err := RunContext(context.Background(), tbl, q, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if full.Workers != 8 {
		t.Fatalf("unbudgeted run: effective workers = %d, want 8", full.Workers)
	}

	// Room for the sequential footprint plus a little head, but not for
	// 8 workers' partition scratch (64 KiB each).
	budget := EstimatePipelineBytes(tbl.N, 2, 2, 1) + 64<<10
	degraded, err := RunContext(context.Background(), tbl, q, Options{Workers: 8, MaxBytes: budget})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if degraded.Workers >= 8 || degraded.Workers < 1 {
		t.Fatalf("effective workers = %d, want in [1, 8)", degraded.Workers)
	}
	if len(degraded.GroupKeys) != len(full.GroupKeys) {
		t.Fatal("degraded run changed the result shape")
	}
	for g := range full.Aggregates {
		if full.Aggregates[g] != degraded.Aggregates[g] {
			t.Fatalf("degraded run changed aggregate %d", g)
		}
	}
}

// TestBudgetTruncatedChargesNoInputs pins what a truncated query is
// charged: no materialized input columns. A budget that degrades the
// unlimited query runs the same query under a limit at the full worker
// count.
func TestBudgetTruncatedChargesNoInputs(t *testing.T) {
	tbl := makeTable(t, 40000, 29)
	q := cancelQuery()
	budget := EstimatePipelineBytes(tbl.N, 2, 2, 1) + 64<<10
	full, err := RunContext(context.Background(), tbl, q, Options{Workers: 8, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if full.Workers >= 8 {
		t.Fatalf("unlimited query: effective workers = %d, want fewer than 8", full.Workers)
	}
	lim := 10
	limited, err := RunContext(context.Background(), tbl, q, Options{Workers: 8, MaxBytes: budget, Limit: &lim})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Workers != 8 {
		t.Fatalf("limited query: effective workers = %d, want 8", limited.Workers)
	}
}

// TestPartitionStartCancel pins invariant 4 of docs/robustness.md on
// the page ranking's walk back to its partition start, which may cross
// every row: a context cancelled before the call, or mid-walk, yields
// context.Canceled within one poll stride, and an uncancelled walk
// stops at the partition's first row.
func TestPartitionStartCancel(t *testing.T) {
	const n = 5 * rankCheckRows
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	onePartition := func(reads *int) func(uint32, []uint64) {
		return func(id uint32, dst []uint64) {
			*reads++
			dst[0] = 1
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx      context.Context
		maxReads int
	}{
		"pre-cancelled": {cancelled, 1},
		"mid-walk":      {testutil.NewPollCtx(2), 1 + 2*rankCheckRows},
	} {
		reads := 0
		if _, err := PartitionStart(tc.ctx, order, n-1, 1, onePartition(&reads)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if reads != tc.maxReads {
			t.Errorf("%s: read %d rows before stopping, want %d", name, reads, tc.maxReads)
		}
	}
	reads := 0
	if first, err := PartitionStart(context.Background(), order, n-1, 1, onePartition(&reads)); err != nil || first != 0 {
		t.Fatalf("one partition: start %d, %v; want 0", first, err)
	}
	first, err := PartitionStart(context.Background(), order, 100, 1, func(id uint32, dst []uint64) { dst[0] = uint64(id) / 7 })
	if err != nil || first != 98 {
		t.Fatalf("partitions of 7: start %d, %v; want 98", first, err)
	}
}

// TestRunContextCancelDuringWalkBack cancels a page query on a table
// with one partition across all rows while the ranking walks back from
// the page to the partition's first row: the query returns
// context.Canceled and no result. The walk's polls come right before
// the ranking's (which ranks from the partition start, here row 0),
// the row-id poll and RunContext's final poll, so the cancellation is
// placed by counting the polls of an uncancelled run.
func TestRunContextCancelDuringWalkBack(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 5*rankCheckRows + 100
	tbl := pageTable(t, n, 39)
	q := Query{ID: "walk", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "one"}}, Window: &Window{OrderCol: "v"}}
	lim := 10
	opts := Options{Workers: 1, Limit: &lim, Offset: n - 50}
	counter := testutil.NewPollCtx(1 << 40)
	if _, err := RunContext(counter, tbl, q, opts); err != nil {
		t.Fatal(err)
	}
	polls := int(1<<40 - counter.Left())
	walk := (n - 50 + rankCheckRows - 1) / rankCheckRows
	rank := (n - 40 + rankCheckRows - 1) / rankCheckRows
	res, err := RunContext(testutil.NewPollCtx(int64(polls-2-rank-walk/2)), tbl, q, opts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want context.Canceled and no result", res, err)
	}
}

// TestBudgetUnlimitedByDefault pins that the zero value means no limit.
func TestBudgetUnlimitedByDefault(t *testing.T) {
	tbl := makeTable(t, 2000, 27)
	if _, err := RunContext(context.Background(), tbl, cancelQuery(), Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestSortGroupsByAggregateCancel pins invariant 4 of
// docs/robustness.md on the ORDER BY <aggregate> step, whose input is up
// to one group per row: a context cancelled before the call, or one
// that is cancelled only once the sort proper is under way (past the
// fill loop's polls and the sort's entry poll), yields context.Canceled
// with the group table untouched.
func TestSortGroupsByAggregateCancel(t *testing.T) {
	const n = 3 * seqGatherCheckRows
	groupKeys := make([][]uint64, n)
	aggregates := make([]uint64, n)
	for i := range aggregates {
		groupKeys[i] = []uint64{uint64(i)}
		aggregates[i] = uint64(i*7919) % 1000
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"pre-cancelled": cancelled,
		"mid-sort":      testutil.NewPollCtx(3 + 1), // three fill polls, the sort's entry poll
	} {
		gk, ag, err := SortGroupsByAggregate(ctx, groupKeys, aggregates)
		if !errors.Is(err, context.Canceled) || gk != nil || ag != nil {
			t.Fatalf("%s: got (%d keys, %d aggregates, %v), want context.Canceled and no result", name, len(gk), len(ag), err)
		}
		for i := range aggregates {
			if len(groupKeys[i]) != 1 || groupKeys[i][0] != uint64(i) || aggregates[i] != uint64(i*7919)%1000 {
				t.Fatalf("%s: input group %d modified", name, i)
			}
		}
	}

	gk, ag, err := SortGroupsByAggregate(context.Background(), groupKeys, aggregates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ag {
		if i > 0 && ag[i-1] < ag[i] {
			t.Fatalf("aggregates not descending at %d", i)
		}
		if ag[i] != aggregates[gk[i][0]] {
			t.Fatalf("entry %d: aggregate %d does not belong to group %d", i, ag[i], gk[i][0])
		}
	}
}

// TestRankSortedCancel pins the same invariant on the window RANK pass,
// which is one step per output row: a context cancelled before the
// call, or one that is cancelled mid-pass, yields context.Canceled and
// no ranks — and the pass stops within one poll stride of the
// cancellation instead of ranking every row.
func TestRankSortedCancel(t *testing.T) {
	const n = 5 * rankCheckRows
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx      context.Context
		maxReads int
	}{
		"pre-cancelled": {cancelled, 0},
		"mid-pass":      {testutil.NewPollCtx(2), 2 * rankCheckRows},
	} {
		reads := 0
		ranks, err := RankSorted(tc.ctx, order, 2, func(id uint32, dst []uint64) {
			reads++
			dst[0], dst[1] = uint64(id)/7, uint64(id)
		})
		if !errors.Is(err, context.Canceled) || ranks != nil {
			t.Fatalf("%s: got (%d ranks, %v), want context.Canceled and no result", name, len(ranks), err)
		}
		if reads != tc.maxReads {
			t.Errorf("%s: ranked %d rows before stopping, want %d", name, reads, tc.maxReads)
		}
	}

	// Uncancelled, the same input ranks 1..7 within each partition of 7.
	ranks, err := RankSorted(context.Background(), order, 2, func(id uint32, dst []uint64) {
		dst[0], dst[1] = uint64(id)/7, uint64(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if r != uint32(i%7)+1 {
			t.Fatalf("row %d: rank %d, want %d", i, r, i%7+1)
		}
	}
}
