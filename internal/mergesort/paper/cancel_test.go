package paper

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// cancelKeys draws n 16-bit keys (ties included) with identity oids.
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

// TestPaperSortCancelAtEveryPoll cancels the sequential and the
// parallel paper sort at each poll in turn, with phase 3 forced to run
// several multiway passes: every cancelled run returns context.Canceled
// and leaks nothing, and once the budget covers every poll the output
// is the stable sort of the input.
func TestPaperSortCancelAtEveryPoll(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	p := Params{InCacheElems: 64, Fanout: 4}
	base, baseO := cancelKeys(20000, 7)
	want, wantO := slices.Clone(base), slices.Clone(baseO)
	sortStable(want, wantO)
	for _, workers := range []int{1, 4} {
		for polls := int64(0); ; polls++ {
			if polls > 10000 {
				t.Fatalf("workers=%d: still cancelled after %d polls", workers, polls)
			}
			keys, oids := slices.Clone(base), slices.Clone(baseO)
			err := p.Sort(testutil.NewPollCtx(polls), 16, keys, oids, workers)
			if errors.Is(err, context.Canceled) {
				continue
			}
			if err != nil {
				t.Fatalf("workers=%d polls=%d: %v", workers, polls, err)
			}
			if !slices.Equal(keys, want) || !slices.Equal(oids, wantO) {
				t.Fatalf("workers=%d: output is not the stable sort of the input", workers)
			}
			if polls < 3 {
				t.Fatalf("workers=%d: finished within %d polls, want one per merge pass", workers, polls)
			}
			break
		}
	}
}

// TestPaperChunkPanicContained injects a panic into the parallel sort's
// chunk workers: it must surface as a *pipeerr.PipelineError of the sort
// stage, not crash the process.
func TestPaperChunkPanicContained(t *testing.T) {
	defer faultinject.Reset()
	defer testutil.CheckNoLeaks(t)()
	keys, oids := cancelKeys(20000, 11)
	restore := faultinject.Set(faultinject.ChunkSort, func() { panic("injected chunk fault") })
	defer restore()
	err := Params{}.Sort(context.Background(), 16, keys, oids, 4)
	var pe *pipeerr.PipelineError
	if !errors.As(err, &pe) || pe.Stage != pipeerr.StageSort {
		t.Fatalf("err = %T %v, want a *pipeerr.PipelineError of stage %q", err, err, pipeerr.StageSort)
	}
}

// sortStable is the reference: keys ascending, ties in input order.
func sortStable(keys []uint64, oids []uint32) {
	type pair struct {
		k uint64
		o uint32
	}
	ps := make([]pair, len(keys))
	for i := range ps {
		ps[i] = pair{keys[i], oids[i]}
	}
	slices.SortStableFunc(ps, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	for i, p := range ps {
		keys[i], oids[i] = p.k, p.o
	}
}
