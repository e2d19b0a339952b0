package planner

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/table"
)

// The plan golden: every row was recorded when the builtin model began
// pricing the radix kernel and truncated free-order searches began
// taking their column order from the search without the limit,
// re-recorded when the radix term began pricing packed words, and again
// when the search became one shortest path per column order: then every
// estimate fell, or, where the plan held, moved only in its last bits,
// and the three bench/ rows, recorded just before, held bit for bit. A
// passing table means a refactored search — capped or not, pinned or
// free — still returns the ColOrder, Plan and bit-equal Est that model
// chose, and stops a capped search after the same number of round costs
// (a truncated free-order search counts those of both its searches). The
// orderby/ovc searches price with the paper kernel's term plugged in
// (internal/mergesort/paper's Model.Sort), as the figures do; the rows
// were recorded when that term was still part of costmodel.Model.
// Est bits are those of an amd64 build; architectures whose compiler
// fuses a + b*n round differently, so they compare everything but the
// bits.

// tpchTables are bench/mcsperf's two tables: 2^19 TPC-H rows, seed 7,
// uniform (tpch_wide) and zipf-skewed (tpch_skew).
var tpchTables [2]struct {
	once sync.Once
	tbl  *table.Table
	err  error
}

func tpchTable(tb testing.TB, skew bool) *table.Table {
	tb.Helper()
	t := &tpchTables[0]
	if skew {
		t = &tpchTables[1]
	}
	t.once.Do(func() {
		t.tbl, t.err = datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 19, Seed: 7, Skew: skew})
	})
	if t.err != nil {
		tb.Fatal(t.err)
	}
	return t.tbl
}

// tableStats are tbl's statistics of the named columns over n rows.
func tableStats(tb testing.TB, tbl *table.Table, n int, names ...string) costmodel.Stats {
	tb.Helper()
	st := costmodel.Stats{N: n}
	for _, name := range names {
		cs, err := tbl.Stats(name)
		if err != nil {
			tb.Fatal(err)
		}
		st.Cols = append(st.Cols, cs)
	}
	return st
}

// topKSearch is the plan search mcsperf's serve_topk_cold pays per
// query: four free PARTITION BY columns, the window's ORDER BY column
// pinned last (W = 48), over a 2^19-row TPC-H table, with the daemon's
// deterministic keystone (ρ off, counted budget).
func topKSearch(tb testing.TB, limitRows int) *Search {
	st := tableStats(tb, tpchTable(tb, false), 1<<19, "supp_nation", "cust_nation", "p_brand", "o_orderdate", "l_extendedprice")
	st.LimitRows = limitRows
	return &Search{Model: costmodel.Builtin(), Stats: st, Kind: PartitionBy, FixedTail: 1, Rho: -1, MaxPlans: 8192}
}

// benchSearches are the searches bench/mcsperf's other three workloads
// run once each, at its budget: lib_wide_unique's ORDER BY over the rows
// its filter keeps, lib_ties' GROUP BY on the skewed table, and the
// coordinator's pin search of shard3_window_full.
func benchSearches(tb testing.TB) []goldenSearch {
	wide := tpchTable(tb, false)
	shipdate, err := wide.ByteSlice("l_shipdate")
	if err != nil {
		tb.Fatal(err)
	}
	kept, err := shipdate.Scan(byteslice.LE, 2300)
	if err != nil {
		tb.Fatal(err)
	}
	search := func(kind ClauseKind, st costmodel.Stats) *Search {
		return &Search{Model: costmodel.Builtin(), Stats: st, Kind: kind, Rho: -1, MaxPlans: 8192}
	}
	window := search(PartitionBy, tableStats(tb, wide, 1<<19, "supp_nation", "l_year", "l_extendedprice"))
	window.FixedTail = 1
	return []goldenSearch{
		{"bench/lib_wide_unique", search(OrderBy, tableStats(tb, wide, kept.Count(), "o_totalprice", "o_orderdate", "c_name", "c_custkey", "l_orderkey"))},
		{"bench/lib_ties", search(GroupBy, tableStats(tb, tpchTable(tb, true), 1<<19, "supp_nation", "cust_nation", "l_year", "p_brand"))},
		{"bench/shard3_window_full", window},
	}
}

type goldenSearch struct {
	name string
	s    *Search
}

// goldenSearches is the recorded battery, each search once at its own
// budget and once per cap.
func goldenSearches(tb testing.TB) []goldenSearch {
	m9 := paperModel(0.9)
	pinned := topKSearch(tb, 3700)
	pinned.FixedOrder = []int{2, 0, 3, 1, 4}
	groups := uniformStats(21, 1<<18, []int{9, 14, 20}, []int{300, 9000, 200000})
	groups.LimitGroups = 50
	base := []goldenSearch{
		{"topk/limit100", topKSearch(tb, 100)},
		{"topk/limit3700", topKSearch(tb, 3700)},
		{"topk/limit51200", topKSearch(tb, 51200)},
		{"topk/unlimited", topKSearch(tb, 0)},
		{"topk/fixedorder", pinned},
		{"groupby/limitgroups", &Search{Model: costmodel.Builtin(), Stats: groups, Kind: GroupBy, Rho: -1, MaxPlans: 8192}},
		{"orderby", &Search{Model: costmodel.Builtin(), Kind: OrderBy, Rho: -1,
			Stats: uniformStats(9, 1<<14, []int{17, 30, 12}, []int{1 << 10, 1 << 12, 1 << 8})}},
		{"orderby/ovc", &Search{Model: m9, Kind: OrderBy, Rho: -1,
			Stats: uniformStats(31, 1<<20, []int{15, 31}, []int{16, 4})}},
	}
	var out []goldenSearch
	for _, g := range base {
		out = append(out, g)
		for _, budget := range []int{1, 50, 500} {
			c := *g.s
			c.MaxPlans = budget
			out = append(out, goldenSearch{fmt.Sprintf("%s/cap%d", g.name, budget), &c})
		}
	}
	return append(out, benchSearches(tb)...)
}

type goldenRow struct {
	order   string
	plan    string
	estBits uint64
	costed  int64 // round costs the search counted against MaxPlans
}

func runGolden(s *Search) goldenRow {
	before := obsPlansCosted.Value()
	c := roga(s)
	return goldenRow{
		order:   fmt.Sprint(c.ColOrder),
		plan:    c.Plan.String(),
		estBits: math.Float64bits(c.Est),
		costed:  obsPlansCosted.Value() - before,
	}
}

func TestPlanGolden(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	searches := goldenSearches(t)
	if len(searches) != len(planGolden) {
		t.Fatalf("%d searches, %d golden rows", len(searches), len(planGolden))
	}
	for _, g := range searches {
		want, ok := planGolden[g.name]
		if !ok {
			t.Errorf("%s: no golden row", g.name)
			continue
		}
		got := runGolden(g.s)
		if runtime.GOARCH != "amd64" {
			got.estBits = want.estBits
		}
		if got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", g.name, got, want)
		}
	}
}

// TestPlanGoldenFromSavedProfile replays the golden with the model
// loaded from a profile of Builtin() that the since-deleted
// costmodel.Model.Save wrote while the model still held the paper
// kernel's term: costmodel.Load ignores those keys, and every search
// must choose as it does under Builtin, bit for bit.
// (internal/experiments' loader reads the paper keys of the same file.)
func TestPlanGoldenFromSavedProfile(t *testing.T) {
	loaded, err := costmodel.Load(filepath.Join("..", "costmodel", "testdata", "profile_builtin_with_paper_term.json"))
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	for _, g := range goldenSearches(t) {
		m := *loaded
		m.Sort = g.s.Model.Sort
		s := *g.s
		s.Model = &m
		got, want := runGolden(&s), planGolden[g.name]
		if runtime.GOARCH != "amd64" {
			got.estBits = want.estBits
		}
		if got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", g.name, got, want)
		}
	}
}

// planGolden: search name → what the search chose when recorded.
var planGolden = map[string]goldenRow{
	"topk/limit100":              {"[0 1 3 2 4]", "{R1: 5/[16], R2: 5/[16], R3: 8/[16], R4: 30/[32]}", 0x4153f1e2c0c180b9, 8592},
	"topk/limit100/cap1":         {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 33/[64]}", 0x4153f267861f35a7, 5728},
	"topk/limit100/cap50":        {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 33/[64]}", 0x4153f267861f35a7, 5728},
	"topk/limit100/cap500":       {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 33/[64]}", 0x4153f267861f35a7, 5728},
	"topk/limit3700":             {"[0 1 3 2 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 26/[32]}", 0x4154ba3e4b115314, 8592},
	"topk/limit3700/cap1":        {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 38/[64]}", 0x4154c72f022b03b2, 5728},
	"topk/limit3700/cap50":       {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 38/[64]}", 0x4154c72f022b03b2, 5728},
	"topk/limit3700/cap500":      {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 38/[64]}", 0x4154c72f022b03b2, 5728},
	"topk/limit51200":            {"[0 1 3 2 4]", "{R1: 5/[16], R2: 17/[32], R3: 26/[32]}", 0x415e884befa43bf2, 8592},
	"topk/limit51200/cap1":       {"[0 1 2 3 4]", "{R1: 15/[16], R2: 33/[64]}", 0x415da4da6a0a8422, 5728},
	"topk/limit51200/cap50":      {"[0 1 2 3 4]", "{R1: 15/[16], R2: 33/[64]}", 0x415da4da6a0a8422, 5728},
	"topk/limit51200/cap500":     {"[0 1 2 3 4]", "{R1: 15/[16], R2: 33/[64]}", 0x415da4da6a0a8422, 5728},
	"topk/unlimited":             {"[0 1 3 2 4]", "{R1: 22/[32], R2: 26/[32]}", 0x4175a469b90b66b6, 5728},
	"topk/unlimited/cap1":        {"[0 1 2 3 4]", "{R1: 22/[32], R2: 26/[32]}", 0x4176b0aa3f12495c, 2864},
	"topk/unlimited/cap50":       {"[0 1 2 3 4]", "{R1: 22/[32], R2: 26/[32]}", 0x4176b0aa3f12495c, 2864},
	"topk/unlimited/cap500":      {"[0 1 2 3 4]", "{R1: 22/[32], R2: 26/[32]}", 0x4176b0aa3f12495c, 2864},
	"topk/fixedorder":            {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 26/[32]}", 0x4154ba3e4b115314, 2864},
	"topk/fixedorder/cap1":       {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 26/[32]}", 0x4154ba3e4b115314, 2864},
	"topk/fixedorder/cap50":      {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 26/[32]}", 0x4154ba3e4b115314, 2864},
	"topk/fixedorder/cap500":     {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 26/[32]}", 0x4154ba3e4b115314, 2864},
	"groupby/limitgroups":        {"[0 1 2]", "{R1: 9/[32], R2: 6/[16], R3: 8/[16], R4: 20/[32]}", 0x414de5560b25b4b0, 9576},
	"groupby/limitgroups/cap1":   {"[0 1 2]", "{R1: 9/[32], R2: 6/[16], R3: 8/[16], R4: 20/[32]}", 0x414de5560b25b4b0, 4788},
	"groupby/limitgroups/cap50":  {"[0 1 2]", "{R1: 9/[32], R2: 6/[16], R3: 8/[16], R4: 20/[32]}", 0x414de5560b25b4b0, 4788},
	"groupby/limitgroups/cap500": {"[0 1 2]", "{R1: 9/[32], R2: 6/[16], R3: 8/[16], R4: 20/[32]}", 0x414de5560b25b4b0, 4788},
	"orderby":                    {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 3986},
	"orderby/cap1":               {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 3986},
	"orderby/cap50":              {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 3986},
	"orderby/cap500":             {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 3986},
	"orderby/ovc":                {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851ec, 2673},
	"orderby/ovc/cap1":           {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851ec, 2673},
	"orderby/ovc/cap50":          {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851ec, 2673},
	"orderby/ovc/cap500":         {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851ec, 2673},
	"bench/lib_wide_unique":      {"[0 1 2 3 4]", "{R1: 29/[32], R2: 60/[64]}", 0x4178c1e9d0bb7ed2, 7336},
	"bench/lib_ties":             {"[0 1 2 3]", "{R1: 18/[32]}", 0x4167aa48cde468f0, 8160},
	"bench/shard3_window_full":   {"[0 1 2]", "{R1: 29/[32]}", 0x416e3bd19e7678cb, 2428},
}

// TestTopKLimit100KeepsRoundZeroNarrow guards the LIMIT path's pricing:
// under a top-100 window query round 0 is the only round over all N
// rows — its massage and radix-select passes grow with its width —
// while later rounds massage, gather and sort the survivors only, so
// the search must keep round 0 within one 16-bit bank.
func TestTopKLimit100KeepsRoundZeroNarrow(t *testing.T) {
	c := roga(topKSearch(t, 100))
	if w := c.Plan.Rounds[0].Width; w > 16 {
		t.Errorf("LIMIT 100 chose %v %v: round 0 is %d bits, want <= 16", c.ColOrder, c.Plan, w)
	}
}

// TestTruncatedSearchKeepsUnlimitedOrder guards the LIMIT/OFFSET
// contract on plan choice: a truncated GROUP BY or PARTITION BY sorts in
// the column order of the same search without the limit, at every cut
// and budget, so its result is the unlimited result sliced.
func TestTruncatedSearchKeepsUnlimitedOrder(t *testing.T) {
	groups := uniformStats(21, 1<<18, []int{9, 14, 20}, []int{300, 9000, 200000})
	for _, maxPlans := range []int{8192, 50} {
		for _, limit := range []int{1, 100, 3700, 25600, 51200} {
			s := topKSearch(t, 0)
			s.MaxPlans = maxPlans
			want := roga(s).ColOrder
			s.Stats.LimitRows = limit
			if got := roga(s).ColOrder; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("topk cap %d LimitRows %d: order %v, unlimited %v", maxPlans, limit, got, want)
			}
		}
		for _, limit := range []int{1, 50, 5000} {
			s := &Search{Model: costmodel.Builtin(), Stats: groups, Kind: GroupBy, Rho: -1, MaxPlans: maxPlans}
			want := roga(s).ColOrder
			s.Stats.LimitGroups = limit
			if got := roga(s).ColOrder; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("groupby cap %d LimitGroups %d: order %v, unlimited %v", maxPlans, limit, got, want)
			}
		}
	}
}

// TestPinnedOrderIsTheSplitsSecondHalf guards what a serving plan
// cache's order entries rely on: a truncated search pinned to the order
// its unlimited search chose (what any earlier page of the query found)
// returns exactly the choice of the whole split search, at every cut
// and budget.
func TestPinnedOrderIsTheSplitsSecondHalf(t *testing.T) {
	groups := uniformStats(21, 1<<18, []int{9, 14, 20}, []int{300, 9000, 200000})
	for _, maxPlans := range []int{8192, 50} {
		for _, limit := range []int{1, 100, 3700, 51200} {
			topk := topKSearch(t, limit)
			topk.MaxPlans = maxPlans
			group := &Search{Model: costmodel.Builtin(), Stats: groups, Kind: GroupBy, Rho: -1, MaxPlans: maxPlans}
			group.Stats.LimitGroups = limit
			for _, s := range []*Search{topk, group} {
				if !s.Splits() {
					t.Fatalf("cap %d limit %d kind %v: search does not split", maxPlans, limit, s.Kind)
				}
				unlimited := *s
				unlimited.Stats.LimitRows, unlimited.Stats.LimitGroups = 0, 0
				pinned := *s
				pinned.FixedOrder = roga(&unlimited).ColOrder
				if got, want := fmt.Sprint(roga(&pinned)), fmt.Sprint(roga(s)); got != want {
					t.Errorf("cap %d limit %d kind %v: pinned search chose %s, the split search %s", maxPlans, limit, s.Kind, got, want)
				}
			}
		}
	}
}
