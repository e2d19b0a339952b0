package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/table"
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

// wideQuery is cancelQuery summing the 40-bit column w of wideTable:
// more planes than one Gather pass decodes, so an unlimited query
// gathers it in selection order before the aggregation sweep.
func wideQuery() Query {
	q := cancelQuery()
	q.ID, q.Agg = "cancel-wide", &Agg{Kind: Sum, Col: "w"}
	return q
}

// wideTable is makeTable plus w, a 40-bit column.
func wideTable(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	tbl := makeTable(t, n, seed)
	rng := rand.New(rand.NewSource(seed))
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64() >> 24
	}
	if err := tbl.Add(column.FromCodes("w", 40, w)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestRunContextCancelAtSites cancels from the engine's gather and
// aggregate sites and massage's chunk site at several worker counts: a
// fired site must yield context.Canceled promptly with no leaked
// goroutines. Which sites a query reaches depends on its kind: the sort
// reads the ByteSlices itself, and the aggregation sweep reads an
// aggregate column of up to 32 bits from its planes in sorted order, so
// only an unlimited query over a wider aggregate column gathers — a
// window query never does, nor does a GROUP BY over v (8 bits), limited
// or not. The unlimited GROUP BY's subtests carry no kind prefix.
func TestRunContextCancelAtSites(t *testing.T) {
	defer faultinject.Reset()
	tbl := wideTable(t, 8000, 21)
	lim := 5
	window := Query{ID: "cancel-window", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}}, Window: &Window{OrderCol: "c"}}
	for _, tc := range []struct {
		name  string
		q     Query
		limit *int
		fires map[string]bool
	}{
		{"", cancelQuery(), nil, map[string]bool{faultinject.MassageChunk: true, faultinject.Aggregate: true}},
		{"groupby-limit", cancelQuery(), &lim, map[string]bool{faultinject.MassageChunk: true, faultinject.Aggregate: true}},
		{"groupby-wide", wideQuery(), nil, map[string]bool{faultinject.Gather: true, faultinject.MassageChunk: true, faultinject.Aggregate: true}},
		{"window", window, nil, map[string]bool{faultinject.MassageChunk: true}},
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

// TestAggregatePanicContained injects a panic into the aggregation
// sweep: the query must fail with a typed *pipeerr.PipelineError naming
// the aggregate stage, not crash — on the caller's goroutine at one
// worker, and at 2 and 4 in the group-parallel path (thousands of (a,b)
// groups >= 2*workers), where the site fires inside pipeline workers.
func TestAggregatePanicContained(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable(t, 8000, 23)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckNoLeaks(t)()
			restore := faultinject.Set(faultinject.Aggregate, func() { panic("injected aggregate fault") })
			defer restore()
			_, err := RunContext(context.Background(), tbl, cancelQuery(), Options{Workers: workers})
			var pe *pipeerr.PipelineError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
			}
			if pe.Stage != pipeerr.StageAggregate {
				t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StageAggregate)
			}
		})
	}
}

// TestGatherPanicContained injects the panic into the gather workers
// instead, which only an unlimited query over an aggregate column wider
// than 32 bits runs.
func TestGatherPanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	tbl := wideTable(t, 8000, 24)
	restore := faultinject.Set(faultinject.Gather, func() { panic("injected gather fault") })
	defer restore()
	_, err := RunContext(context.Background(), tbl, wideQuery(), Options{Workers: 4})
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
	budget := EstimatePipelineBytes(tbl.N, 2, 1) + 64<<10
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
// charged: no materialized input columns, since its sort reads the
// ByteSlices itself. A budget of exactly the chosen plan's estimate at 8
// workers runs the query under a limit at 8; one byte less degrades it.
func TestBudgetTruncatedChargesNoInputs(t *testing.T) {
	tbl := makeTable(t, 40000, 29)
	q := cancelQuery()
	lim := 10
	probe, err := RunContext(context.Background(), tbl, q, Options{Workers: 8, Limit: &lim})
	if err != nil {
		t.Fatal(err)
	}
	budget := EstimatePipelineBytes(tbl.N, len(probe.Plan.Rounds), 8)
	for _, tc := range []struct {
		budget  int64
		workers func(int) bool
		want    string
	}{
		{budget, func(w int) bool { return w == 8 }, "8"},
		{budget - 1, func(w int) bool { return w >= 1 && w < 8 }, "in [1, 8)"},
	} {
		limited, err := RunContext(context.Background(), tbl, q, Options{Workers: 8, MaxBytes: tc.budget, Limit: &lim})
		if err != nil {
			t.Fatalf("budget %d: %v", tc.budget, err)
		}
		if !tc.workers(limited.Workers) {
			t.Errorf("budget %d: limited query ran at %d workers, want %s", tc.budget, limited.Workers, tc.want)
		}
	}
}

// TestPartitionStartCancel pins invariant 4 of docs/robustness.md on
// the page ranking's walk back over the groups to its partition start,
// which may cross every row: a context cancelled before the call, or
// mid-walk, yields context.Canceled within one poll stride, and an
// uncancelled walk stops at the partition's first row.
func TestPartitionStartCancel(t *testing.T) {
	const n = 5 * rankCheckGroups
	// Sort (part, order) with order unique: every row is its own group.
	sorted := func(part func(i int) uint64) *mcsort.Result {
		pc, oc := make([]uint64, n), make([]uint64, n)
		for i := range pc {
			pc[i], oc[i] = part(i), uint64(i)
		}
		inputs := []massage.Input{{Codes: pc, Width: 16}, {Codes: oc, Width: 16}}
		mres, err := mcsort.ExecuteContext(context.Background(), inputs, plan.ColumnAtATime([]int{16, 16}), mcsort.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return mres
	}
	one := sorted(func(int) uint64 { return 1 })
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := partitionStart(cancelled, one, n-1, 16); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	// A walk cancelled at its third poll, 2·rankCheckGroups groups back,
	// stops there: the poll that reported the cancellation is its last.
	mid := testutil.NewPollCtx(2)
	if _, err := partitionStart(mid, one, n-1, 16); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk: err = %v, want context.Canceled", err)
	}
	if left := mid.Left(); left != -1 {
		t.Errorf("mid-walk: %d polls left after stopping, want -1", left)
	}
	if first, err := partitionStart(context.Background(), one, n-1, 16); err != nil || first != 0 {
		t.Fatalf("one partition: start %d, %v; want 0", first, err)
	}
	first, err := partitionStart(context.Background(), sorted(func(i int) uint64 { return uint64(i) / 7 }), 100, 16)
	if err != nil || first != 98 {
		t.Fatalf("partitions of 7: start %d, %v; want 98", first, err)
	}
}

// TestRunContextCancelDuringWalkBack cancels a page query with one
// partition across all rows, each row its own group, while the ranking
// walks back over the groups from the page to the partition's first
// row: the query returns context.Canceled and no result. The walk's
// polls come right before the ranking's and RunContext's final poll
// (the unfiltered page's row ids are the permutation, read without a
// poll), so the cancellation is placed by counting the polls of an
// uncancelled run.
func TestRunContextCancelDuringWalkBack(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 5*rankCheckGroups + 100
	tbl := table.New("walk", n)
	one, uniq := make([]uint64, n), make([]uint64, n)
	for i, v := range rand.New(rand.NewSource(39)).Perm(n) {
		uniq[i] = uint64(v)
	}
	for _, c := range []*column.Column{column.FromCodes("one", 3, one), column.FromCodes("u", 16, uniq)} {
		if err := tbl.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{ID: "walk", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "one"}}, Window: &Window{OrderCol: "u"}}
	lim := 10
	opts := Options{Workers: 1, Limit: &lim, Offset: n - 50}
	counter := testutil.NewPollCtx(1 << 40)
	if _, err := RunContext(counter, tbl, q, opts); err != nil {
		t.Fatal(err)
	}
	polls := int(1<<40 - counter.Left())
	walk := (n-50-1)/rankCheckGroups + 1 // groups n-50 down to 1
	const rank = 1                       // the page's 10 groups
	res, err := RunContext(testutil.NewPollCtx(int64(polls-1-rank-walk/2)), tbl, q, opts)
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
