package planner

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/table"
)

// The plan golden: every row was recorded when the builtin model began
// pricing the radix kernel and truncated free-order searches began
// taking their column order from the search without the limit, and
// re-recorded when the radix term began pricing packed words, so a
// passing table means a refactored search — capped or not, pinned or
// free — still returns the ColOrder, Plan and bit-equal Est that model
// chose, and stops a capped search at the same candidate (a truncated
// free-order search counts the candidates of both its searches). The
// orderby/ovc searches price with the paper kernel's term plugged in
// (internal/mergesort/paper's Model.Sort), as the figures do; the rows
// were recorded when that term was still part of costmodel.Model.
// Est bits are those of an amd64 build; architectures whose compiler
// fuses a + b*n round differently, so they compare everything but the
// bits.

var topKTable struct {
	once sync.Once
	tbl  *table.Table
	err  error
}

// topKSearch is the plan search mcsperf's serve_topk_cold pays per
// query: four free PARTITION BY columns, the window's ORDER BY column
// pinned last (W = 48), over a 2^19-row TPC-H table, with the daemon's
// deterministic keystone (ρ off, counted budget).
func topKSearch(tb testing.TB, limitRows int) *Search {
	tb.Helper()
	topKTable.once.Do(func() {
		topKTable.tbl, topKTable.err = datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 1 << 19, Seed: 7})
	})
	if topKTable.err != nil {
		tb.Fatal(topKTable.err)
	}
	st := costmodel.Stats{N: 1 << 19, LimitRows: limitRows}
	for _, name := range []string{"supp_nation", "cust_nation", "p_brand", "o_orderdate", "l_extendedprice"} {
		cs, err := topKTable.tbl.Stats(name)
		if err != nil {
			tb.Fatal(err)
		}
		st.Cols = append(st.Cols, cs)
	}
	return &Search{Model: costmodel.Builtin(), Stats: st, Kind: PartitionBy, FixedTail: 1, Rho: -1, MaxPlans: 8192}
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
	return out
}

type goldenRow struct {
	order      string
	plan       string
	estBits    uint64
	enumerated int64 // candidates the search counted against MaxPlans
}

func runGolden(s *Search) goldenRow {
	before := obsCandidates.Value()
	c := roga(s)
	return goldenRow{
		order:      fmt.Sprint(c.ColOrder),
		plan:       c.Plan.String(),
		estBits:    math.Float64bits(c.Est),
		enumerated: obsCandidates.Value() - before,
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
	"topk/limit100":              {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4153f2fc2b7929c1, 4650},
	"topk/limit100/cap1":         {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4153f2fc2b7929c1, 2},
	"topk/limit100/cap50":        {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4153f2fc2b7929c1, 100},
	"topk/limit100/cap500":       {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4153f2fc2b7929c1, 686},
	"topk/limit3700":             {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4154f59ed64115aa, 4650},
	"topk/limit3700/cap1":        {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4154f59ed64115aa, 2},
	"topk/limit3700/cap50":       {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4154f59ed64115aa, 100},
	"topk/limit3700/cap500":      {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x4154f59ed64115aa, 686},
	"topk/limit51200":            {"[0 1 2 3 4]", "{R1: 10/[16], R2: 13/[16], R3: 25/[32]}", 0x41603f8efbd3b923, 4650},
	"topk/limit51200/cap1":       {"[0 1 2 3 4]", "{R1: 5/[16], R2: 5/[16], R3: 5/[16], R4: 12/[16], R5: 21/[32]}", 0x41612515e723e9d0, 2},
	"topk/limit51200/cap50":      {"[0 1 2 3 4]", "{R1: 10/[16], R2: 13/[16], R3: 25/[32]}", 0x41603f8efbd3b923, 100},
	"topk/limit51200/cap500":     {"[0 1 2 3 4]", "{R1: 10/[16], R2: 13/[16], R3: 25/[32]}", 0x41603f8efbd3b923, 686},
	"topk/unlimited":             {"[0 1 2 3 4]", "{R1: 23/[32], R2: 25/[32]}", 0x4176fefe1aa318df, 4464},
	"topk/unlimited/cap1":        {"[0 1 2 3 4]", "{R1: 48/[64]}", 0x417bb466789e38fc, 1},
	"topk/unlimited/cap50":       {"[0 1 2 3 4]", "{R1: 23/[32], R2: 25/[32]}", 0x4176fefe1aa318df, 50},
	"topk/unlimited/cap500":      {"[0 1 2 3 4]", "{R1: 23/[32], R2: 25/[32]}", 0x4176fefe1aa318df, 500},
	"topk/fixedorder":            {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 5/[16], R5: 21/[32]}", 0x4154d5d1c2a05abd, 186},
	"topk/fixedorder/cap1":       {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 5/[16], R5: 21/[32]}", 0x4154d5d1c2a05abd, 1},
	"topk/fixedorder/cap50":      {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 5/[16], R5: 21/[32]}", 0x4154d5d1c2a05abd, 50},
	"topk/fixedorder/cap500":     {"[2 0 3 1 4]", "{R1: 5/[16], R2: 5/[16], R3: 12/[16], R4: 5/[16], R5: 21/[32]}", 0x4154d5d1c2a05abd, 186},
	"groupby/limitgroups":        {"[0 1 2]", "{R1: 9/[16], R2: 14/[16], R3: 20/[32]}", 0x4150593dbc52e7a1, 1302},
	"groupby/limitgroups/cap1":   {"[0 1 2]", "{R1: 9/[16], R2: 14/[16], R3: 20/[32]}", 0x4150593dbc52e7a1, 2},
	"groupby/limitgroups/cap50":  {"[0 1 2]", "{R1: 9/[16], R2: 14/[16], R3: 20/[32]}", 0x4150593dbc52e7a1, 100},
	"groupby/limitgroups/cap500": {"[0 1 2]", "{R1: 9/[16], R2: 14/[16], R3: 20/[32]}", 0x4150593dbc52e7a1, 686},
	"orderby":                    {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 759},
	"orderby/cap1":               {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 1},
	"orderby/cap50":              {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 50},
	"orderby/cap500":             {"[0 1 2]", "{R1: 59/[64]}", 0x4122709ce87709ae, 500},
	"orderby/ovc":                {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851eb, 186},
	"orderby/ovc/cap1":           {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851eb, 1},
	"orderby/ovc/cap50":          {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851eb, 50},
	"orderby/ovc/cap500":         {"[0 1]", "{R1: 46/[64]}", 0x41bbd7fd4eb851eb, 186},
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
