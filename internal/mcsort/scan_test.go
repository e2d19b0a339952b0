package mcsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// refineRef is the group scan in one sequential pass: each group split
// where the sorted key changes.
func refineRef(groups []int32, keys []uint64) []int32 {
	var out []int32
	for g := 0; g+1 < len(groups); g++ {
		lo, hi := int(groups[g]), int(groups[g+1])
		out = append(out, int32(lo))
		for i := lo + 1; i < hi; i++ {
			if keys[i] != keys[i-1] {
				out = append(out, int32(i))
			}
		}
	}
	return append(out, groups[len(groups)-1])
}

// scanKeys are n keys in runs of 1 to 9 equal values.
func scanKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := 1; i < n; i++ {
		keys[i] = keys[i-1]
		if rng.Intn(5) == 0 {
			keys[i] += 1 + uint64(rng.Intn(3))
		}
	}
	return keys
}

// TestRefineGroupsDifferential: the group scan across workers 1 to 4
// equals the one-pass scan, over more positions than one sequential
// block (pipeerr.BlockRows), for groups that start at 0 and groups that
// start later and end before the last key (a truncated sort's), of
// random sizes, with and without a group start on every bound of the
// workers' ranges — so a range starts on a group start, and on a
// position inside a group whose key changes there or not.
func TestRefineGroupsDifferential(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	rng := rand.New(rand.NewSource(67))
	const n = pipeerr.BlockRows + 4099
	keys := scanKeys(rng, n)
	for _, span := range []struct{ first, end int }{{0, n}, {1000, n - 777}} {
		for _, edges := range []bool{false, true} {
			starts := map[int32]bool{}
			for i := span.first; i < span.end; i += 1 + rng.Intn(300) {
				starts[int32(i)] = true
			}
			if edges {
				for w := 2; w <= 4; w++ {
					bounds := pipeerr.Cut(span.end-span.first, w, 8)
					for _, b := range bounds[:len(bounds)-1] {
						starts[int32(span.first+b)] = true
					}
				}
			}
			groups := []int32{int32(span.end)}
			for s := range starts {
				groups = append(groups, s)
			}
			slices.Sort(groups)
			want := refineRef(groups, keys)
			for workers := 1; workers <= 4; workers++ {
				got, err := refineGroups(context.Background(), groups, keys, workers, 1)
				tag := fmt.Sprintf("span=%v edges=%v workers=%d", span, edges, workers)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d boundaries, want %d (the one-pass scan's)", tag, len(got), len(want))
				}
			}
		}
	}
}

// TestRefineGroupsCancelledAndContained: a cancellation from the group
// scan's site returns ctx.Err() and no boundaries, and a panic there
// surfaces as a *pipeerr.PipelineError of the scan stage and the
// round, at every worker count, leaking nothing.
func TestRefineGroupsCancelledAndContained(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(71))
	const n = 2*pipeerr.BlockRows + 5
	keys := scanKeys(rng, n)
	groups := []int32{0, 700, n}
	for _, workers := range []int{1, 2, 4} {
		check := testutil.CheckNoLeaks(t)
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Int64
		restore := faultinject.Set(faultinject.GroupScan, func() {
			if fired.Add(1) == 2 {
				cancel()
			}
		})
		got, err := refineGroups(ctx, groups, keys, workers, 2)
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("workers=%d: got %d boundaries, %v, want none and context.Canceled", workers, len(got), err)
		}

		restore = faultinject.Set(faultinject.GroupScan, func() { panic("injected scan fault") })
		_, err = refineGroups(context.Background(), groups, keys, workers, 2)
		restore()
		var pe *pipeerr.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %T %v, want *pipeerr.PipelineError", workers, err, err)
		}
		if pe.Stage != pipeerr.StageScan || pe.Round != 2 {
			t.Errorf("workers=%d: contained at stage %q round %d, want %q round 2", workers, pe.Stage, pe.Round, pipeerr.StageScan)
		}
		check()
	}
}
