package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/testutil"
)

// override pins a column order and round widths, each round in the
// narrowest bank that holds it.
func override(order []int, widths ...int) *planner.Choice {
	return &planner.Choice{ColOrder: order, Plan: plan.FromWidths(widths)}
}

// TestWindowRanksFromGroups is the window battery of ranking from the
// sorted round keys' groups. Every plan — one round, column at a time,
// and two-round plans whose partition prefix ends inside a round key,
// at its boundary, or in a permuted partition order — must rank exactly
// as the naive reference, byte-identical to every other plan of its
// column order, and every page — starting mid-group, mid-partition, at and past the
// last row — must be that ranking sliced, at workers 1, 2 and 4.
func TestWindowRanksFromGroups(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := makeTable(t, 3000, 43)
	ties := make([]uint64, tbl.N)
	for i := range ties {
		ties[i] = uint64(i*7919) % 5
	}
	if err := tbl.Add(column.FromCodes("g", 3, ties)); err != nil {
		t.Fatal(err)
	}
	var midGroup, midPartition bool
	for _, tc := range []struct {
		q     Query
		part  []string
		plans []*planner.Choice
	}{
		{ // partition a‖f (10 bits), order g (3 bits, 5 values)
			Query{ID: "af-g", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a", Desc: true}, {Name: "f"}}, Window: &Window{OrderCol: "g"}},
			[]string{"a", "f"},
			[]*planner.Choice{
				override([]int{0, 1, 2}, 4, 6, 3),
				override([]int{0, 1, 2}, 13),
				override([]int{0, 1, 2}, 11, 2),
				override([]int{0, 1, 2}, 7, 6),
				override([]int{0, 1, 2}, 10, 3),
				override([]int{1, 0, 2}, 8, 5),
			},
		},
		{ // partition a‖b (13 bits), order c (17 bits)
			Query{ID: "ab-c", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}, {Name: "b", Desc: true}}, Window: &Window{OrderCol: "c"}},
			[]string{"a", "b"},
			[]*planner.Choice{
				override([]int{0, 1, 2}, 4, 9, 17),
				override([]int{0, 1, 2}, 10, 20),
				override([]int{0, 1, 2}, 20, 10),
				override([]int{0, 1, 2}, 13, 17),
				override([]int{1, 0, 2}, 30),
				override([]int{1, 0, 2}, 11, 19),
			},
		},
	} {
		want := refRanks(tbl, tc.part, tc.q.Window.OrderCol, nil)
		bases := map[string]string{} // by column order
		for _, choice := range tc.plans {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/plan=%v%v/workers=%d", tc.q.ID, choice.ColOrder, choice.Plan.Widths(), workers)
				opts := limitOptions(workers)
				opts.PlanOverride = choice
				full, err := run(tbl, tc.q, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(full.Ranks) != tbl.N {
					t.Fatalf("%s: %d ranks, want %d", name, len(full.Ranks), tbl.N)
				}
				for i, oid := range full.RowOids {
					if full.Ranks[i] != want[oid] {
						t.Fatalf("%s: oid %d: rank %d, want %d", name, oid, full.Ranks[i], want[oid])
					}
				}
				order := fmt.Sprint(choice.ColOrder)
				if base, ok := bases[order]; !ok {
					bases[order] = canonResult(full)
				} else if canonResult(full) != base {
					t.Fatalf("%s: differs from the first run in its column order", name)
				}
				rows := tbl.N
				for _, off := range []int{0, 1, 2, 37, 101, rows / 2, rows/2 + 1, rows - 3, rows, rows + 9} {
					if off > 0 && off < rows && full.Ranks[off] > 1 {
						midPartition = true
						midGroup = midGroup || full.Ranks[off] == full.Ranks[off-1]
					}
					for _, k := range []int{1, 10, 100} {
						k := k
						opts.Limit, opts.Offset = &k, off
						got, err := run(tbl, tc.q, opts)
						if err != nil {
							t.Fatalf("%s k=%d off=%d: %v", name, k, off, err)
						}
						if g, w := canonResult(got), canonResult(sliceOracle(full, true, &k, off)); g != w {
							t.Fatalf("%s k=%d off=%d: diverges from the full ranking sliced\ngot:\n%s\nwant:\n%s", name, k, off, g, w)
						}
					}
				}
			}
		}
	}
	if !midGroup || !midPartition {
		t.Fatalf("pages reached mid-group %v, mid-partition %v; want both", midGroup, midPartition)
	}
}

// TestWindowOverrideKeepsOrderColumnLast pins that a window's plan
// override must keep the ORDER BY column last: the ranks are read from
// the partition as the sorted key's leading bits.
func TestWindowOverrideKeepsOrderColumnLast(t *testing.T) {
	tbl := makeTable(t, 500, 44)
	q := Query{ID: "w", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "a"}}, Window: &Window{OrderCol: "v"}}
	if _, err := run(tbl, q, Options{PlanOverride: override([]int{1, 0}, 12)}); err == nil {
		t.Fatal("an override moving the ORDER BY column off the tail ran")
	}
}

// TestGroupKeysFromRoundKeys: GROUP BY and ORDER BY over DESC columns,
// under column-at-a-time, stitching and bit-borrowing plans in clause
// and permuted column orders, decode the same group table as the
// unmassaged run — and GROUP BY's matches refGroups — at workers 1, 2
// and 4, unlimited and under a group limit.
func TestGroupKeysFromRoundKeys(t *testing.T) {
	tbl := makeTable(t, 4000, 45)
	cols := []SortCol{{Name: "a", Desc: true}, {Name: "b"}, {Name: "c", Desc: true}} // 4 + 9 + 17 bits
	for _, tc := range []struct {
		kind  planner.ClauseKind
		plans []*planner.Choice
	}{
		{planner.GroupBy, []*planner.Choice{
			override([]int{0, 1, 2}, 4, 9, 17),
			override([]int{0, 1, 2}, 6, 24),
			override([]int{0, 1, 2}, 30),
			override([]int{2, 0, 1}, 20, 10),
			override([]int{1, 2, 0}, 3, 27),
		}},
		{planner.OrderBy, []*planner.Choice{
			override([]int{0, 1, 2}, 4, 9, 17),
			override([]int{0, 1, 2}, 6, 24),
			override([]int{0, 1, 2}, 15, 15),
		}},
	} {
		q := Query{ID: fmt.Sprintf("kind%d", tc.kind), Kind: tc.kind, SortCols: cols}
		if tc.kind == planner.GroupBy {
			q.Agg = &Agg{Kind: Sum, Col: "v"}
		}
		oracle, err := run(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.kind == planner.GroupBy {
			want := refGroups(tbl, q)
			if len(oracle.GroupKeys) != len(want) {
				t.Fatalf("%s: %d groups, want %d", q.ID, len(oracle.GroupKeys), len(want))
			}
			for g, keys := range oracle.GroupKeys {
				if want[keyOf(keys)] != oracle.Aggregates[g] {
					t.Fatalf("%s: group %v: agg %d, want %d", q.ID, keys, oracle.Aggregates[g], want[keyOf(keys)])
				}
			}
		}
		for _, choice := range tc.plans {
			for _, workers := range []int{1, 2, 4} {
				for _, limit := range []*int{nil, lim(7)} {
					name := fmt.Sprintf("%s/plan=%v%v/workers=%d/limit=%v", q.ID, choice.ColOrder, choice.Plan.Widths(), workers, limit != nil)
					opts := limitOptions(workers)
					opts.PlanOverride, opts.Limit = choice, limit
					got, err := run(tbl, q, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := oracle
					if tc.kind == planner.OrderBy || choice.ColOrder[0] == 0 {
						want = sliceOracle(oracle, false, limit, 0)
					} else {
						// A permuted GROUP BY orders its groups differently:
						// compare the table, not its order.
						wantAgg := map[string]uint64{}
						for g, keys := range oracle.GroupKeys {
							wantAgg[keyOf(keys)] = oracle.Aggregates[g]
						}
						if limit == nil && len(got.GroupKeys) != len(oracle.GroupKeys) {
							t.Fatalf("%s: %d groups, want %d", name, len(got.GroupKeys), len(oracle.GroupKeys))
						}
						for g, keys := range got.GroupKeys {
							if a, ok := wantAgg[keyOf(keys)]; !ok || a != got.Aggregates[g] {
								t.Fatalf("%s: group %v: agg %d, want %d (present %v)", name, keys, got.Aggregates[g], a, ok)
							}
						}
						continue
					}
					if g, w := canonResult(got), canonResult(want); g != w {
						t.Fatalf("%s: group table differs from the unmassaged run\ngot:\n%s\nwant:\n%s", name, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkWindowRank times an unlimited window query over 2^19 rows —
// 1,000 partitions of a 10-bit column, ordered by a 16-bit one — under a
// one-round and a two-round plan (whose partition prefix ends inside
// round 1's key) at workers 1 and 2. rank-ns/row is Timing.Aggregate,
// the ranking from the sorted keys' groups and the page's row ids, per
// row.
func BenchmarkWindowRank(b *testing.B) {
	const rows = 1 << 19
	rng := rand.New(rand.NewSource(1))
	tbl := table.New("rank", rows)
	for _, c := range []struct {
		name         string
		width, count int
	}{{"p", 10, 1000}, {"o", 16, 1 << 16}} {
		codes := make([]uint64, rows)
		for i := range codes {
			codes[i] = uint64(rng.Intn(c.count))
		}
		if err := tbl.Add(column.FromCodes(c.name, c.width, codes)); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{ID: "rank", Kind: planner.PartitionBy, SortCols: []SortCol{{Name: "p"}}, Window: &Window{OrderCol: "o"}}
	for _, choice := range []*planner.Choice{override([]int{0, 1}, 26), override([]int{0, 1}, 13, 13)} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rounds=%d/workers=%d", len(choice.Plan.Rounds), workers), func(b *testing.B) {
				var rank time.Duration
				for i := 0; i < b.N; i++ {
					res, err := run(tbl, q, Options{PlanOverride: choice, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					rank += res.Timing.Aggregate
				}
				b.ReportMetric(float64(rank.Nanoseconds())/float64(b.N)/rows, "rank-ns/row")
			})
		}
	}
}
