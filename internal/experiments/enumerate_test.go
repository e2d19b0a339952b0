package experiments

import (
	"hash/fnv"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/planner"
)

func TestEnumerateExactSmall(t *testing.T) {
	// W=5, maxK = ⌊2·4/16⌋+1 = 1 → only {5/[16]}.
	m := costmodel.Builtin()
	st := uniformStats(6, 1000, []int{2, 3}, []int{4, 8})
	s := &planner.Search{Model: m, Stats: st, Kind: planner.OrderBy}
	cands, exact := enumerate(s, enumerateOptions{Budget: 1000})
	if !exact {
		t.Fatal("small space must enumerate exactly")
	}
	if len(cands) != 1 {
		t.Fatalf("W=5 has 1 feasible plan, got %d", len(cands))
	}
	if cands[0].Plan.TotalWidth() != 5 {
		t.Errorf("bad plan %v", cands[0].Plan)
	}
}

func TestEnumerateCountMatchesDP(t *testing.T) {
	// W=19 → maxK=3: compositions into ≤3 parts = 1+18+C(18,2)=172.
	m := costmodel.Builtin()
	st := uniformStats(7, 1000, []int{5, 8, 6}, []int{30, 250, 60})
	s := &planner.Search{Model: m, Stats: st, Kind: planner.OrderBy}
	cands, exact := enumerate(s, enumerateOptions{Budget: 10000})
	if !exact {
		t.Fatal("expected exact enumeration")
	}
	if len(cands) != 172 {
		t.Errorf("got %d candidates, want 172", len(cands))
	}
	if c := countCompositions(19, 3); c != 172 {
		t.Errorf("countCompositions(19,3) = %v, want 172", c)
	}
	// Free order multiplies by 3! = 6.
	s.Kind = planner.GroupBy
	cands, exact = enumerate(s, enumerateOptions{Budget: 10000})
	if !exact || len(cands) != 172*6 {
		t.Errorf("free-order candidates = %d, want %d", len(cands), 172*6)
	}
}

func TestEnumerateSampling(t *testing.T) {
	m := costmodel.Builtin()
	st := uniformStats(8, 1000, []int{30, 40}, []int{1000, 1000})
	s := &planner.Search{Model: m, Stats: st, Kind: planner.OrderBy}
	cands, exact := enumerate(s, enumerateOptions{Budget: 500, Seed: 1})
	if exact {
		t.Fatal("W=70 space must be sampled")
	}
	if len(cands) != 500 {
		t.Fatalf("sample size %d, want 500", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if err := c.Plan.Validate(70); err != nil {
			t.Fatalf("sampled invalid plan: %v", err)
		}
		k := candKey(c.ColOrder, c.Plan)
		if seen[k] {
			t.Fatal("duplicate candidate in sample")
		}
		seen[k] = true
	}
}

// TestEnumerateGolden pins the enumerated populations — size, the
// exact flag, and an FNV-1a hash of the candidates' keys in order —
// on the planner tests' inputs under Builtin with the paper term
// plugged in: the rows were recorded from planner.Enumerate before it
// moved here, and the moved code must reproduce them.
func TestEnumerateGolden(t *testing.T) {
	m := paperPriced()
	st7 := uniformStats(7, 1000, []int{5, 8, 6}, []int{30, 250, 60})
	cases := []struct {
		name  string
		s     *planner.Search
		opts  enumerateOptions
		size  int
		exact bool
		hash  uint64
	}{
		{"exactsmall", &planner.Search{Model: m, Stats: uniformStats(6, 1000, []int{2, 3}, []int{4, 8}), Kind: planner.OrderBy}, enumerateOptions{Budget: 1000}, 1, true, 0xf8b750d378e083d0},
		{"dp/orderby", &planner.Search{Model: m, Stats: st7, Kind: planner.OrderBy}, enumerateOptions{Budget: 10000}, 172, true, 0xde1e0da65db1a4c5},
		{"dp/groupby", &planner.Search{Model: m, Stats: st7, Kind: planner.GroupBy}, enumerateOptions{Budget: 10000}, 1032, true, 0x2f5f1cc4a497d2f5},
		{"sampling", &planner.Search{Model: m, Stats: uniformStats(8, 1000, []int{30, 40}, []int{1000, 1000}), Kind: planner.OrderBy}, enumerateOptions{Budget: 500, Seed: 1}, 500, false, 0xf934fc4131226543},
		{"sampling/groupby", &planner.Search{Model: m, Stats: uniformStats(4, 1<<16, []int{24, 4, 9}, []int{60000, 16, 300}), Kind: planner.GroupBy}, enumerateOptions{Budget: 300, Seed: 5}, 300, false, 0x8d727ff2e7fc92bd},
		{"sampling/default", &planner.Search{Model: m, Stats: uniformStats(8, 1000, []int{30, 40}, []int{1000, 1000}), Kind: planner.OrderBy}, enumerateOptions{Seed: 2}, 4096, false, 0x22a46e39899f3c41},
	}
	for _, c := range cases {
		cands, exact := enumerate(c.s, c.opts)
		h := fnv.New64a()
		for _, cand := range cands {
			h.Write([]byte(candKey(cand.ColOrder, cand.Plan)))
			h.Write([]byte{0xFE})
		}
		if len(cands) != c.size || exact != c.exact || h.Sum64() != c.hash {
			t.Errorf("%s: %d candidates (exact %v, hash %#x), want %d (exact %v, hash %#x)",
				c.name, len(cands), exact, h.Sum64(), c.size, c.exact, c.hash)
		}
	}
}
