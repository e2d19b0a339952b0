package mcsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
	"repro/internal/testutil"
)

// payloadTable is two sort columns of 6 and 10 bits, few distinct
// values each so groups tie, and a payload column of width bits over
// tableRows rows, all ByteSlice-backed over the selection sel (every
// row when sel is nil).
func payloadTable(tableRows, width int, sel []uint32, seed int64) ([]massage.Input, *massage.Source) {
	rng := rand.New(rand.NewSource(seed))
	col := func(w, distinct int) *byteslice.BS {
		codes := make([]uint64, tableRows)
		for i := range codes {
			codes[i] = uint64(rng.Intn(distinct)) & column.Mask(w)
		}
		return byteslice.FromColumn(column.FromCodes("c", w, codes))
	}
	inputs := []massage.Input{
		{Width: 6, Source: &massage.Source{Column: col(6, 5), Rows: sel}},
		{Width: 10, Desc: true, Source: &massage.Source{Column: col(10, 40), Rows: sel}},
	}
	return inputs, &massage.Source{Column: col(width, 1<<min(width, 31)), Rows: sel}
}

// TestPayloadRefusals: a payload is refused with a LimitRows or a
// LimitGroups cut, when its column is wider than 32 bits, and when it
// covers other rows than the inputs — under a plan of one round or of
// two.
func TestPayloadRefusals(t *testing.T) {
	inputs, pl := payloadTable(500, 21, nil, 3)
	_, wide := payloadTable(500, 33, nil, 3)
	_, short := payloadTable(499, 21, nil, 3)
	for _, p := range []plan.Plan{
		{Rounds: []plan.Round{{Width: 16, Bank: 16}}},
		{Rounds: []plan.Round{{Width: 6, Bank: 16}, {Width: 10, Bank: 16}}},
	} {
		for _, tc := range []struct {
			name string
			opts Options
		}{
			{"limit rows", Options{Payload: pl, LimitRows: 10}},
			{"limit groups", Options{Payload: pl, LimitGroups: 3}},
			{"33 bits", Options{Payload: wide}},
			{"other rows", Options{Payload: short}},
		} {
			if res, err := execute(inputs, p, tc.opts); err == nil || res != nil {
				t.Errorf("%s under %v: got %v, %v, want a refusal", tc.name, p, res, err)
			}
		}
	}
}

// payloadPlans are the plans the payload battery sorts its 16-bit
// concatenation (6 bits, then 10 DESC) under: one round in bank 32 and
// in bank 64; two rounds whose first borrows two bits of the DESC
// column; two rounds whose first — the top 3 bits of a column under 5
// — ties every row, so the last round, which carries the codes, sorts
// one group of all of them; and three rounds that split both columns,
// whose round 1 sorts that one group.
var payloadPlans = []plan.Plan{
	{Rounds: []plan.Round{{Width: 16, Bank: 32}}},
	{Rounds: []plan.Round{{Width: 16, Bank: 64}}},
	{Rounds: []plan.Round{{Width: 8, Bank: 16}, {Width: 8, Bank: 32}}},
	{Rounds: []plan.Round{{Width: 3, Bank: 16}, {Width: 13, Bank: 32}}},
	{Rounds: []plan.Round{{Width: 3, Bank: 16}, {Width: 7, Bank: 32}, {Width: 6, Bank: 64}}},
}

// TestPayloadCarriesGroupCodes: with a payload, every final group of
// the sort holds exactly the payload codes of the rows the oid sort
// puts in it (in some order), and the groups and keys are the oid
// sort's, under every plan of payloadPlans. The sizes take the sorts
// that carry the codes — round 0 of a one-round plan, the last round's
// group sorts of a longer one — to the insertion sort (40 rows), the
// radix sort's pairs (1,500 rows in bank 32, and any size in bank 64),
// its packed words (6,000 rows in bank 32) and the parallel radix sort
// (40,000 rows from two workers: round 0, and the group of every row
// of the plans whose round 0 ties them all), over every row and over a selection, at workers 1,
// 2 and 4; the counters show that the insertion sorts and the
// cooperative group sorts ran.
func TestPayloadCarriesGroupCodes(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	bumps := testutil.Bumps(func() {
		for _, size := range []int{40, 1500, 6000, 40000} {
			for _, filtered := range []bool{false, true} {
				tableRows, sel := size, []uint32(nil)
				if filtered {
					// Two rows of every three.
					tableRows = size + size/2
					for i := 0; len(sel) < size; i++ {
						if i%3 != 2 {
							sel = append(sel, uint32(i))
						}
					}
				}
				for _, width := range []int{1, 21, 32} {
					inputs, pl := payloadTable(tableRows, width, sel, int64(size+width))
					for _, p := range payloadPlans {
						for _, workers := range []int{1, 2, 4} {
							tag := fmt.Sprintf("size=%d filtered=%v width=%d plan=%v workers=%d", size, filtered, width, p, workers)
							opts := Options{Workers: workers}
							want, err := execute(inputs, p, opts)
							if err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							opts.Payload = pl
							got, err := execute(inputs, p, opts)
							if err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							checkPayloadGroups(t, tag, got, want, pl)
						}
					}
				}
			}
		}
	}, "mergesort.insertion_sorts", "mcsort.cooperative_group_sorts")
	if bumps[0] == 0 || bumps[1] == 0 {
		t.Errorf("insertion sorts %d, cooperative group sorts %d: want both", bumps[0], bumps[1])
	}
}

// checkPayloadGroups compares a payload sort against the oid sort of
// the same inputs.
func checkPayloadGroups(t *testing.T, tag string, got, want *Result, pl *massage.Source) {
	t.Helper()
	if !slices.Equal(got.Groups, want.Groups) || len(got.Perm) != len(want.Perm) || !slices.EqualFunc(got.Keys, want.Keys, slices.Equal[[]uint64]) {
		t.Fatalf("%s: groups or keys differ from the oid sort's", tag)
	}
	codes := make([]uint64, 1)
	for g := 0; g+1 < len(want.Groups); g++ {
		lo, hi := want.Groups[g], want.Groups[g+1]
		wantCodes := make([]uint32, 0, hi-lo)
		for _, oid := range want.Perm[lo:hi] {
			pl.Range(codes, int(oid))
			wantCodes = append(wantCodes, uint32(codes[0]))
		}
		gotCodes := slices.Clone(got.Perm[lo:hi])
		slices.Sort(gotCodes)
		slices.Sort(wantCodes)
		if !slices.Equal(gotCodes, wantCodes) {
			t.Fatalf("%s: group %d carries %v, want %v", tag, g, gotCodes, wantCodes)
		}
	}
}

// TestPayloadFillCancelled: a cancellation from the payload fill's
// second range returns ctx.Err() and no result, at every worker count,
// and leaks nothing; on the caller's goroutine the fill starts no
// third range of its three.
func TestPayloadFillCancelled(t *testing.T) {
	defer faultinject.Reset()
	inputs, pl := payloadTable(3*pipeerr.BlockRows, 21, nil, 5)
	p := plan.Plan{Rounds: []plan.Round{{Width: 16, Bank: 16}}}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckNoLeaks(t)()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var fired atomic.Int64
			restore := faultinject.Set(faultinject.Payload, func() {
				if fired.Add(1) == 2 {
					cancel()
				}
			})
			defer restore()
			res, err := ExecuteContext(ctx, inputs, p, Options{Workers: workers, Payload: pl})
			if n := fired.Load(); n < 2 || workers == 1 && n != 2 {
				t.Fatalf("the payload fill fired its site %d times", n)
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("got %v, %v, want no result and context.Canceled", res, err)
			}
		})
	}
}

// TestPayloadFillPanicContained: a panic inside the payload fill
// surfaces as a *pipeerr.PipelineError of the massage stage — round 0
// under a one-round plan, the last round under a two-round plan, whose
// fill runs just before that round's lookup — at every worker count,
// and leaks nothing.
func TestPayloadFillPanicContained(t *testing.T) {
	defer faultinject.Reset()
	inputs, pl := payloadTable(2*mergesort.ParallelMinRows+100, 21, nil, 7)
	for _, tc := range []struct {
		p     plan.Plan
		round int
	}{
		{plan.Plan{Rounds: []plan.Round{{Width: 16, Bank: 16}}}, 0},
		{plan.Plan{Rounds: []plan.Round{{Width: 6, Bank: 16}, {Width: 10, Bank: 16}}}, 1},
	} {
		for _, workers := range []int{1, 2, 4} {
			check := testutil.CheckNoLeaks(t)
			restore := faultinject.Set(faultinject.Payload, func() { panic("injected payload fault") })
			_, err := ExecuteContext(context.Background(), inputs, tc.p, Options{Workers: workers, Payload: pl})
			restore()
			var pe *pipeerr.PipelineError
			if !errors.As(err, &pe) {
				t.Fatalf("%v workers=%d: err = %T %v, want *pipeerr.PipelineError", tc.p, workers, err, err)
			}
			if pe.Stage != pipeerr.StageMassage || pe.Round != tc.round {
				t.Errorf("%v workers=%d: contained at stage %q round %d, want %q round %d", tc.p, workers, pe.Stage, pe.Round, pipeerr.StageMassage, tc.round)
			}
			check()
		}
	}
}
