package mergesort_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

func cancelKeys(n int, seed int64) ([]uint64, []uint32) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 16))
		oids[i] = uint32(i)
	}
	return keys, oids
}

// TestParallelSortCancelAtSites cancels from the chunk-sort and
// loser-merge sites across worker counts: whenever a site fires, the
// sort must return context.Canceled promptly and leak nothing. The
// production kernel's count and scatter passes fire the chunk-sort
// site; only the paper kernel's chunk merge reaches the loser-merge
// site, so that site is driven under it.
func TestParallelSortCancelAtSites(t *testing.T) {
	defer faultinject.Reset()
	for _, site := range []string{faultinject.ChunkSort, faultinject.LoserMerge} {
		for _, workers := range []int{1, 4, 8} {
			site, workers := site, workers
			t.Run(fmt.Sprintf("%s/workers=%d", site, workers), func(t *testing.T) {
				defer testutil.CheckNoLeaks(t)()
				keys, oids := cancelKeys(20000, 7)
				var p Params
				if site == faultinject.LoserMerge {
					p = paperKernel(p, paper.Params{})
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var fired atomic.Bool
				restore := faultinject.Set(site, func() {
					fired.Store(true)
					cancel()
				})
				defer restore()
				err := ParallelSortWithParamsContext(ctx, 16, keys, oids, p, workers)
				if fired.Load() {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("site fired but err = %v, want context.Canceled", err)
					}
				} else if err != nil {
					t.Fatalf("site never fired but err = %v", err)
				}
				if workers > 1 && !fired.Load() {
					t.Fatalf("the parallel sort never fired %s", site)
				}
			})
		}
	}
}

// TestParallelSortPreCancelled pins the upfront check on the sequential
// fallback path too (workers=1 and tiny inputs).
func TestParallelSortPreCancelled(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		keys, oids := cancelKeys(4096, 9)
		err := ParallelSortWithParamsContext(ctx, 16, keys, oids, Params{}, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestChunkSortPanicContained injects a panic in the chunk-sort workers:
// it must surface as *pipeerr.PipelineError with stage "sort".
func TestChunkSortPanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	keys, oids := cancelKeys(20000, 11)
	restore := faultinject.Set(faultinject.ChunkSort, func() { panic("injected chunk fault") })
	defer restore()
	err := ParallelSortWithParamsContext(context.Background(), 16, keys, oids, Params{}, 4)
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StageSort {
		t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StageSort)
	}
	if pe.Worker < 0 {
		t.Errorf("worker = %d, want >= 0", pe.Worker)
	}
}

// TestTopKCancelAtSites cancels the top-K sort from the chunk-sort
// site, which every pass of its cut, its compaction and its survivor
// sort fires: a fired site must yield context.Canceled promptly with no
// leaked goroutines. On zipf keys at limit n/8 the radix select's
// boundary bucket — a heavy tie — is counted a second time, and the
// zipf case cancels at every firing in turn, so cancellation lands
// inside that refinement too.
func TestTopKCancelAtSites(t *testing.T) {
	defer faultinject.Reset()
	const n = 20000
	uniform, _ := cancelKeys(n, 19)
	rng := rand.New(rand.NewSource(19))
	zipf := rand.NewZipf(rng, 1.2, 1.3, 1<<16-1)
	skewed := make([]uint64, n)
	for i := range skewed {
		skewed[i] = zipf.Uint64()
	}
	for _, c := range []struct {
		name     string
		keys     []uint64
		limit    int
		everyHit bool
	}{
		{"", uniform, 64, false},
		{"zipf-limit-n8/", skewed, n / 8, true},
	} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/%sworkers=%d", faultinject.ChunkSort, c.name, workers), func(t *testing.T) {
				defer testutil.CheckNoLeaks(t)()
				hits := 1
				if c.everyHit {
					var fires atomic.Int64
					restore := faultinject.Set(faultinject.ChunkSort, func() { fires.Add(1) })
					mustTopK(t, 16, append([]uint64(nil), c.keys...), identOids(n), c.limit, Params{}, workers)
					restore()
					hits = int(fires.Load())
				}
				for hit := 1; hit <= hits; hit++ {
					ctx, cancel := context.WithCancel(context.Background())
					var fires atomic.Int64
					restore := faultinject.Set(faultinject.ChunkSort, func() {
						if fires.Add(1) == int64(hit) {
							cancel()
						}
					})
					m, err := TopKContext(ctx, 16, append([]uint64(nil), c.keys...), identOids(n), c.limit, Params{}, workers)
					restore()
					cancel()
					if fires.Load() < int64(hit) {
						t.Fatalf("the top-K sort fired its site %d times, want %d", fires.Load(), hit)
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("site fired (hit %d of %d) but err = %v, want context.Canceled", hit, hits, err)
					}
					if m != 0 {
						t.Fatalf("cancelled TopK (hit %d of %d) returned m=%d, want 0", hit, hits, m)
					}
				}
			})
		}
	}
}

// TestParallelMergeTopKCancelAtSite drives MergeRunsContext's limit
// path: every rank share fires the loser-merge site before it merges, so
// a cancellation there must abort the merge with no output.
func TestParallelMergeTopKCancelAtSite(t *testing.T) {
	defer faultinject.Reset()
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckNoLeaks(t)()
			keys, oids := cancelKeys(20000, 23)
			runK := splitAt(keys, sortedRuns(keys, oids, 6))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var fired atomic.Bool
			restore := faultinject.Set(faultinject.LoserMerge, func() {
				fired.Store(true)
				cancel()
			})
			defer restore()
			k, err := MergeRunsContext(ctx, runK, 64, workers)
			if !fired.Load() {
				t.Fatal("LoserMerge site never fired on a truncating merge")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if k != nil {
				t.Fatalf("cancelled merge returned %d rows, want none", len(k))
			}
		})
	}
}

// TestCancelledMergeRerunsIdentically pins that a merge cancelled inside
// its shares leaves no residue: the runs are read only, so rerunning
// gives byte-identical output, at every worker count.
func TestCancelledMergeRerunsIdentically(t *testing.T) {
	defer faultinject.Reset()
	keys, oids := cancelKeys(3*MergeCheckEvery, 37)
	runs := sortedRuns(keys, oids, 5)
	for _, workers := range []int{1, 2, 3} {
		want := mustMergeRuns(t, keys, runs, 0, workers)
		ctx, cancel := context.WithCancel(context.Background())
		restore := faultinject.Set(faultinject.LoserMerge, cancel)
		_, err := MergeRunsContext(ctx, splitAt(keys, runs), 0, workers)
		restore()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled merge: err = %v", workers, err)
		}
		got := mustMergeRuns(t, keys, runs, 0, workers)
		checkWords(t, fmt.Sprintf("workers=%d rerun", workers), got, want)
	}
}

// TestMergeSharePanicContained injects a panic into the rank shares: it
// must surface as a *pipeerr.PipelineError of the merge stage outside
// any round, and leak no goroutine.
func TestMergeSharePanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	keys, oids := cancelKeys(20000, 41)
	runK := splitAt(keys, sortedRuns(keys, oids, 4))
	restore := faultinject.Set(faultinject.LoserMerge, func() { panic("injected share fault") })
	defer restore()
	_, err := MergeRunsContext(context.Background(), runK, 0, 4)
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StageMerge || pe.Round != -1 {
		t.Errorf("stage %q round %d, want %q round -1", pe.Stage, pe.Round, pipeerr.StageMerge)
	}
}

// TestTopKChunkPanicContained injects a panic into the radix select's
// count workers: it must surface as a typed *pipeerr.PipelineError with
// stage "sort", not crash the process.
func TestTopKChunkPanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	keys, oids := cancelKeys(20000, 29)
	restore := faultinject.Set(faultinject.ChunkSort, func() { panic("injected topk chunk fault") })
	defer restore()
	_, err := TopKContext(context.Background(), 16, keys, oids, 64, Params{}, 4)
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pipeerr.PipelineError", err, err)
	}
	if pe.Stage != pipeerr.StageSort {
		t.Errorf("stage = %q, want %q", pe.Stage, pipeerr.StageSort)
	}
}

// TestCancelledTopKRerunsIdentically pins that a cancellation inside the
// chunk passes leaves no residue: rerunning gives a byte-identical
// survivor prefix.
func TestCancelledTopKRerunsIdentically(t *testing.T) {
	defer faultinject.Reset()
	var p Params
	const limit = 64
	base, baseO := cancelKeys(20000, 31)

	want := append([]uint64(nil), base...)
	wantO := append([]uint32(nil), baseO...)
	var wantM int
	var err error
	if testutil.Bumps(func() { wantM, err = TopKContext(context.Background(), 16, want, wantO, limit, p, 4) }, "mergesort.topk_sorts")[0] == 0 {
		t.Fatal("the radix select never ran")
	}
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	restore := faultinject.Set(faultinject.ChunkSort, func() { cancel() })
	k := append([]uint64(nil), base...)
	o := append([]uint32(nil), baseO...)
	if _, err := TopKContext(ctx, 16, k, o, limit, p, 4); !errors.Is(err, context.Canceled) {
		restore()
		t.Fatalf("cancelled TopK: err = %v", err)
	}
	restore()

	k = append([]uint64(nil), base...)
	o = append([]uint32(nil), baseO...)
	m, err := TopKContext(context.Background(), 16, k, o, limit, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m != wantM {
		t.Fatalf("rerun m=%d, first run m=%d", m, wantM)
	}
	for i := 0; i < m; i++ {
		if k[i] != want[i] || o[i] != wantO[i] {
			t.Fatalf("survivor prefix diverges at %d after a cancelled run", i)
		}
	}
}

// TestCancelledSortRerunsIdentically pins that cancellation leaves no
// residue: rerunning after a cancelled sort gives byte-identical output.
func TestCancelledSortRerunsIdentically(t *testing.T) {
	defer faultinject.Reset()
	var p Params
	base, baseO := cancelKeys(20000, 17)

	want := append([]uint64(nil), base...)
	wantO := append([]uint32(nil), baseO...)
	var err error
	if testutil.Bumps(func() { err = ParallelSortWithParamsContext(context.Background(), 16, want, wantO, p, 4) }, "mergesort.parallel_sorts")[0] == 0 {
		t.Fatal("the parallel radix sort never ran")
	}
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	restore := faultinject.Set(faultinject.ChunkSort, func() { cancel() })
	k := append([]uint64(nil), base...)
	o := append([]uint32(nil), baseO...)
	if err := ParallelSortWithParamsContext(ctx, 16, k, o, p, 4); !errors.Is(err, context.Canceled) {
		restore()
		t.Fatalf("cancelled sort: err = %v", err)
	}
	restore()

	k = append([]uint64(nil), base...)
	o = append([]uint32(nil), baseO...)
	if err := ParallelSortWithParamsContext(context.Background(), 16, k, o, p, 4); err != nil {
		t.Fatal(err)
	}
	for i := range k {
		if k[i] != want[i] || o[i] != wantO[i] {
			t.Fatalf("keys or oids diverge at %d after a cancelled run", i)
		}
	}
}
