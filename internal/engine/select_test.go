package engine

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
	"repro/internal/pipeerr"
	"repro/internal/table"
	"repro/internal/testutil"
)

// selectTable has 2·pipeerr.BlockRows + 13 rows — not a multiple of 8
// or 64, and more than one sequential block — with a 12-bit column a
// and a 40-bit column b of random codes.
func selectTable(t *testing.T) *table.Table {
	t.Helper()
	const n = 2*pipeerr.BlockRows + 13
	rng := rand.New(rand.NewSource(89))
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(rng.Intn(1<<12)), rng.Uint64()>>24
	}
	tbl := table.New("select", n)
	for _, c := range []*column.Column{column.FromCodes("a", 12, a), column.FromCodes("b", 40, b)} {
		if err := tbl.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestSelectAcrossWorkers: the filter stage across workers 1 to 4 —
// every op on a 12-bit column, a range on a 40-bit one, and both ANDed
// — keeps exactly the bits of the sequential ByteSlice scans ANDed, and
// lists exactly their rows.
func TestSelectAcrossWorkers(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := selectTable(t)
	ctx := context.Background()
	between := Filter{Col: "b", Between: true, Lo: 1 << 37, Hi: 3 << 38}
	var cases [][]Filter
	for _, op := range []byteslice.Op{byteslice.LT, byteslice.LE, byteslice.GT, byteslice.GE, byteslice.EQ, byteslice.NEQ} {
		cases = append(cases, []Filter{{Col: "a", Op: op, Const: 1 << 11}})
	}
	cases = append(cases, []Filter{between}, []Filter{{Col: "a", Op: byteslice.LT, Const: 3000}, between})
	for _, filters := range cases {
		var want *byteslice.BitVector
		for _, f := range filters {
			bs, err := tbl.ByteSlice(f.Col)
			if err != nil {
				t.Fatal(err)
			}
			var bv *byteslice.BitVector
			if f.Between {
				bv, err = bs.ScanBetween(f.Lo, f.Hi)
			} else {
				bv, err = bs.Scan(f.Op, f.Const)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = bv
			} else {
				want.And(bv)
			}
		}
		b, err := Bind(tbl, Query{SortCols: []SortCol{{Name: "a"}}, Filters: filters})
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			tag := fmt.Sprintf("%+v workers=%d", filters, workers)
			sel, err := b.Select(ctx, workers)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !slices.Equal(sel.bv.Words, want.Words) {
				t.Fatalf("%s: the bit vector differs from the sequential scans'", tag)
			}
			rows, err := sel.Rows(ctx, workers)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !slices.Equal(rows, want.Rows()) {
				t.Fatalf("%s: %d rows listed, want %d", tag, len(rows), want.Count())
			}
		}
	}
}

// TestSelectCancelledAndContained: a cancellation from the second
// range of the filter scan or of the row list returns ctx.Err(), and a
// panic there surfaces as a *pipeerr.PipelineError of the filter stage,
// at every worker count, leaking nothing.
func TestSelectCancelledAndContained(t *testing.T) {
	defer faultinject.Reset()
	tbl := selectTable(t)
	b, err := Bind(tbl, Query{SortCols: []SortCol{{Name: "a"}}, Filters: []Filter{{Col: "a", Op: byteslice.LT, Const: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	stage := func(ctx context.Context, workers int) error {
		sel, err := b.Select(ctx, workers)
		if err != nil {
			return err
		}
		_, err = sel.Rows(ctx, workers)
		return err
	}
	for _, site := range []string{faultinject.FilterScan, faultinject.RowList} {
		for _, workers := range []int{1, 2, 4} {
			check := testutil.CheckNoLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			var fired atomic.Int64
			restore := faultinject.Set(site, func() {
				if fired.Add(1) == 2 {
					cancel()
				}
			})
			err := stage(ctx, workers)
			restore()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want context.Canceled", site, workers, err)
			}

			restore = faultinject.Set(site, func() { panic("injected filter fault") })
			err = stage(context.Background(), workers)
			restore()
			var pe *pipeerr.PipelineError
			if !errors.As(err, &pe) || pe.Stage != pipeerr.StageFilter {
				t.Fatalf("%s workers=%d: err = %v, want a *pipeerr.PipelineError of stage %q", site, workers, err, pipeerr.StageFilter)
			}
			check()
		}
	}
}
