package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/planner"
)

// TestNewSearchCarriesTheCut pins that mcsplan searches what mcsd
// searches under a LIMIT (engine.Bound.ChoosePlan): the statistics carry
// the clause's sort cut — ranked rows for a window, groups otherwise,
// none without a limit — and a window keeps its ORDER BY column last.
func TestNewSearchCarriesTheCut(t *testing.T) {
	st := costmodel.Stats{N: 1 << 18}
	for _, c := range []struct {
		kind                planner.ClauseKind
		limit, offset       int
		wantRows, wantGroup int
		wantTail            int
	}{
		{planner.PartitionBy, 100, 0, 100, 0, 1},
		{planner.PartitionBy, 100, 7, 107, 0, 1},
		{planner.PartitionBy, 0, 7, 0, 0, 1},
		{planner.GroupBy, 100, 7, 0, 107, 0},
		{planner.OrderBy, 10, 0, 0, 10, 0},
		{planner.OrderBy, 0, 0, 0, 0, 0},
	} {
		s := newSearch(c.kind, st, -1, c.limit, c.offset)
		if s.Stats.LimitRows != c.wantRows || s.Stats.LimitGroups != c.wantGroup || s.FixedTail != c.wantTail {
			t.Errorf("%v limit %d offset %d: cut rows %d groups %d, tail %d; want %d, %d, %d", c.kind, c.limit, c.offset,
				s.Stats.LimitRows, s.Stats.LimitGroups, s.FixedTail, c.wantRows, c.wantGroup, c.wantTail)
		}
		if s.Stats.N != st.N || s.Kind != c.kind {
			t.Errorf("%v: search over %d rows, kind %v", c.kind, s.Stats.N, s.Kind)
		}
	}
}

// TestNewSearchPicksTheTruncatedPlan runs the search of
// `mcsplan -widths 12,17,20 -clause partitionby -rows 262144 -limit 100`:
// priced with the cut, the pick differs from the unlimited one, and the
// window's ORDER BY column stays last.
func TestNewSearchPicksTheTruncatedPlan(t *testing.T) {
	widths := []int{12, 17, 20}
	rng := rand.New(rand.NewSource(1))
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		cols[i] = datagen.Uniform(rng, 1<<16, w, 1<<13).Codes
	}
	st := costmodel.CollectStats(cols, widths)
	st.N = 1 << 18
	full, err := planner.ROGAContext(context.Background(), newSearch(planner.PartitionBy, st, -1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	top, err := planner.ROGAContext(context.Background(), newSearch(planner.PartitionBy, st, -1, 100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if top.ColOrder[2] != 2 {
		t.Errorf("window ORDER BY column moved: order %v", top.ColOrder)
	}
	if top.Plan.String() == full.Plan.String() {
		t.Errorf("the limit did not change the pick: %v", top.Plan)
	}
}
