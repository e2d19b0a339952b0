package planner

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/table"
)

// The plan golden: every row was recorded from the commit before the
// search moved onto costmodel.Profile (PR 21), so a passing table means
// the refactored search — capped or not, pinned or free — still returns
// the ColOrder, Plan and bit-equal Est the direct formulas chose, and
// stops a capped search at the same candidate. Est bits are those of an
// amd64 build; architectures whose compiler fuses a + b*n round
// differently, so they compare everything but the bits.

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
	m9 := costmodel.Builtin()
	m9.C.OVCMergeDiscount = 0.9
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

// planGolden: search name → what the parent commit chose.
var planGolden = map[string]goldenRow{
	"topk/limit100":              {"[3 0 1 2 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41443cbaf988a23a, 4464},
	"topk/limit100/cap1":         {"[0 1 2 3 4]", "{R1: 48/[64]}", 0x415029deabd9170f, 1},
	"topk/limit100/cap50":        {"[0 1 2 3 4]", "{R1: 16/[16], R2: 32/[32]}", 0x414c3c44bc5bc890, 50},
	"topk/limit100/cap500":       {"[0 1 3 2 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41484045aaf43338, 500},
	"topk/limit3700":             {"[3 0 1 2 4]", "{R1: 16/[16], R2: 32/[32]}", 0x414b74fd8c933faa, 4464},
	"topk/limit3700/cap1":        {"[0 1 2 3 4]", "{R1: 48/[64]}", 0x4155ee6eabd9170f, 1},
	"topk/limit3700/cap50":       {"[0 1 2 3 4]", "{R1: 16/[16], R2: 32/[32]}", 0x4151b3328592a601, 50},
	"topk/limit3700/cap500":      {"[0 1 3 2 4]", "{R1: 16/[16], R2: 32/[32]}", 0x414f90a5875edc2b, 500},
	"topk/limit51200":            {"[3 0 1 2 4]", "{R1: 16/[16], R2: 32/[32]}", 0x416eadf052d7d3b1, 4464},
	"topk/limit51200/cap1":       {"[0 1 2 3 4]", "{R1: 48/[64]}", 0x41788236aaf645c3, 1},
	"topk/limit51200/cap50":      {"[0 1 2 3 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41703dd578abafa0, 50},
	"topk/limit51200/cap500":     {"[0 1 3 2 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41700232cb911b10, 500},
	"topk/unlimited":             {"[0 1 2 3 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41a325ab14234d3d, 4464},
	"topk/unlimited/cap1":        {"[0 1 2 3 4]", "{R1: 48/[64]}", 0x41afa80320000000, 1},
	"topk/unlimited/cap50":       {"[0 1 2 3 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41a325ab14234d3d, 50},
	"topk/unlimited/cap500":      {"[0 1 2 3 4]", "{R1: 16/[16], R2: 32/[32]}", 0x41a325ab14234d3d, 500},
	"topk/fixedorder":            {"[2 0 3 1 4]", "{R1: 16/[16], R2: 32/[32]}", 0x414f90a5875edc2b, 186},
	"topk/fixedorder/cap1":       {"[2 0 3 1 4]", "{R1: 48/[64]}", 0x4155ee6eabd9170f, 1},
	"topk/fixedorder/cap50":      {"[2 0 3 1 4]", "{R1: 16/[16], R2: 32/[32]}", 0x414f90a5875edc2b, 50},
	"topk/fixedorder/cap500":     {"[2 0 3 1 4]", "{R1: 16/[16], R2: 32/[32]}", 0x414f90a5875edc2b, 186},
	"groupby/limitgroups":        {"[2 0 1]", "{R1: 16/[16], R2: 27/[32]}", 0x4190688c7b96cba7, 1116},
	"groupby/limitgroups/cap1":   {"[0 1 2]", "{R1: 9/[16], R2: 14/[16], R3: 20/[32]}", 0x4192bff6429147a8, 1},
	"groupby/limitgroups/cap50":  {"[0 1 2]", "{R1: 16/[16], R2: 27/[32]}", 0x419078c6c355849b, 50},
	"groupby/limitgroups/cap500": {"[0 1 2]", "{R1: 16/[16], R2: 27/[32]}", 0x419078c6c355849b, 500},
	"orderby":                    {"[0 1 2]", "{R1: 16/[16], R2: 43/[64]}", 0x41507cf7a29d9a0b, 759},
	"orderby/cap1":               {"[0 1 2]", "{R1: 17/[32], R2: 30/[32], R3: 12/[16]}", 0x4156469d153e8f3f, 1},
	"orderby/cap50":              {"[0 1 2]", "{R1: 16/[16], R2: 43/[64]}", 0x41507cf7a29d9a0b, 50},
	"orderby/cap500":             {"[0 1 2]", "{R1: 16/[16], R2: 43/[64]}", 0x41507cf7a29d9a0b, 500},
	"orderby/ovc":                {"[0 1]", "{R1: 46/[64]}", 0x41bb782590000000, 186},
	"orderby/ovc/cap1":           {"[0 1]", "{R1: 46/[64]}", 0x41bb782590000000, 1},
	"orderby/ovc/cap50":          {"[0 1]", "{R1: 46/[64]}", 0x41bb782590000000, 50},
	"orderby/ovc/cap500":         {"[0 1]", "{R1: 46/[64]}", 0x41bb782590000000, 186},
}
