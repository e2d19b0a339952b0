package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/mergesort/paper"
	"repro/internal/planner"
)

// The paper's baseline searches, RRS and the plan enumerator, and the
// golden that pins them to what they chose while they lived in
// internal/planner.

// roga runs the search under context.Background(), where it cannot
// fail: these tests exercise plan choice, not cancellation.
func roga(s *planner.Search) planner.Choice {
	c, _ := planner.ROGAContext(context.Background(), s)
	return c
}

// uniformStats draws n rows whose w-bit columns each hold `distinct`
// values uniformly from [0, 2^w), seeded: the planner tests' inputs.
func uniformStats(seed int64, n int, widths, distinct []int) costmodel.Stats {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		seen := make(map[uint64]bool, distinct[i])
		vals := make([]uint64, 0, distinct[i])
		for len(vals) < distinct[i] {
			v := rng.Uint64() & column.Mask(w)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		codes := make([]uint64, n)
		for r := range codes {
			codes[r] = vals[rng.Intn(len(vals))]
		}
		cols[i] = codes
	}
	return costmodel.CollectStats(cols, widths)
}

// paperPriced is Builtin with the paper kernel's default term plugged
// in, as the figures price plans.
func paperPriced() *costmodel.Model {
	m := costmodel.Builtin()
	m.Sort = paper.DefaultModel().Sort
	return m
}

func TestRRSFindsValidPlans(t *testing.T) {
	m := costmodel.Builtin()
	st := uniformStats(5, 1<<16, []int{17, 33}, []int{1 << 13, 1 << 13})
	s := &planner.Search{Model: m, Stats: st, Kind: planner.OrderBy, Rho: 0.05}
	got := rrs(s, 42)
	if err := got.Plan.Validate(st.TotalWidth()); err != nil {
		t.Fatalf("RRS returned invalid plan: %v", err)
	}
	base := s.Baseline()
	if got.Est > base.Est {
		t.Errorf("RRS est %.3g worse than baseline %.3g", got.Est, base.Est)
	}
}

func TestROGABeatsRRSOnAverage(t *testing.T) {
	// Table 1's qualitative claim, in miniature: over several instances,
	// ROGA's estimated cost should win or tie RRS far more often than
	// it loses (both run under the same generous budget).
	m := costmodel.Builtin()
	wins, losses := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		widths := []int{int(10 + seed), int(20 + seed*2)}
		st := uniformStats(seed+10, 1<<16, widths, []int{1 << 9, 1 << 11})
		s := &planner.Search{Model: m, Stats: st, Kind: planner.OrderBy, Rho: 0.02}
		r := roga(s)
		x := rrs(s, seed)
		switch {
		case r.Est <= x.Est:
			wins++
		default:
			losses++
		}
	}
	if wins < losses {
		t.Errorf("ROGA won %d, lost %d against RRS", wins, losses)
	}
}

// TestRRSGolden pins seeded RRS picks under Builtin with the paper term
// plugged in, with no ρ threshold (one fruitless restart ends the
// search, so the pick is deterministic): the rows were recorded from
// planner.RRS before it moved here, and the moved code must reproduce
// them bit for bit.
func TestRRSGolden(t *testing.T) {
	m := paperPriced()
	type golden struct {
		name, order, plan string
		estBits           uint64
	}
	type run struct {
		s    *planner.Search
		seed int64
	}
	runs := []run{{&planner.Search{Model: m, Stats: uniformStats(5, 1<<16, []int{17, 33}, []int{1 << 13, 1 << 13}), Kind: planner.OrderBy, Rho: -1}, 42}}
	for seed := int64(0); seed < 8; seed++ {
		widths := []int{int(10 + seed), int(20 + seed*2)}
		runs = append(runs, run{&planner.Search{Model: m, Stats: uniformStats(seed+10, 1<<16, widths, []int{1 << 9, 1 << 11}), Kind: planner.OrderBy, Rho: -1}, seed})
	}
	runs = append(runs,
		run{&planner.Search{Model: m, Stats: uniformStats(7, 1000, []int{5, 8, 6}, []int{30, 250, 60}), Kind: planner.GroupBy, Rho: -1}, 3},
		run{&planner.Search{Model: m, Stats: uniformStats(4, 1<<16, []int{24, 4, 9}, []int{60000, 16, 300}), Kind: planner.PartitionBy, FixedTail: 1, Rho: -1}, 9})
	want := []golden{
		{"valid", "[0 1]", "{R1: 16/[16], R2: 34/[64]}", 0x416fb23f09fed189},
		{"avg0", "[0 1]", "{R1: 16/[16], R2: 14/[16]}", 0x416f45058ebd316b},
		{"avg1", "[0 1]", "{R1: 16/[16], R2: 17/[32]}", 0x416f64cd3d51c2f5},
		{"avg2", "[0 1]", "{R1: 16/[16], R2: 20/[32]}", 0x416f776be709ace0},
		{"avg3", "[0 1]", "{R1: 16/[16], R2: 23/[32]}", 0x416fb726d2681f5a},
		{"avg4", "[0 1]", "{R1: 27/[32], R2: 15/[16]}", 0x4174521846cc3d1c},
		{"avg5", "[0 1]", "{R1: 28/[32], R2: 17/[32]}", 0x4174521846cc3d1c},
		{"avg6", "[0 1]", "{R1: 31/[32], R2: 17/[32]}", 0x4174521846cc3d1c},
		{"avg7", "[0 1]", "{R1: 29/[32], R2: 22/[32]}", 0x4174654b79ff704f},
		{"groupby", "[0 1 2]", "{R1: 13/[16], R2: 6/[16]}", 0x410dc05cbf66ec8d},
		{"window", "[1 0 2]", "{R1: 16/[16], R2: 21/[32]}", 0x416f4a178d7a6bfb},
	}
	for i, r := range runs {
		c := rrs(r.s, r.seed)
		got := golden{want[i].name, fmt.Sprint(c.ColOrder), c.Plan.String(), math.Float64bits(c.Est)}
		if runtime.GOARCH != "amd64" { // the Est bits are an amd64 build's
			got.estBits = want[i].estBits
		}
		if got != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", want[i].name, got, want[i])
		}
	}
}
