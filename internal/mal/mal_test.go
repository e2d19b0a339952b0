package mal

import (
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/planner"
)

// chainProgram mirrors Appendix B's example: sort column a then column
// b within ties, with the connecting lookup.
func chainProgram() *Program {
	return &Program{Instrs: []Instr{
		{Op: OpScan, Out: []string{"a", "b"}, Args: []string{"wide"}},
		{Op: OpSIMDSort, Out: []string{"oid1", "grp1"}, Args: []string{"a", "16", "nil"}, Bank: 16, Width: 10},
		{Op: OpLookup, Out: []string{"b1"}, Args: []string{"b", "oid1"}},
		{Op: OpSIMDSort, Out: []string{"oid2", "grp2"}, Args: []string{"b1", "32", "grp1"}, Bank: 32, Width: 17},
		{Op: OpAggregate, Out: []string{"res"}, Args: []string{"oid2", "grp2"}},
	}}
}

func TestDetectSortChains(t *testing.T) {
	chains := DetectSortChains(chainProgram())
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	ch := chains[0]
	if ch.Start != 1 || ch.End != 4 {
		t.Errorf("chain range [%d,%d), want [1,4)", ch.Start, ch.End)
	}
	if len(ch.Columns) != 2 || ch.Columns[0] != "a" || ch.Columns[1] != "b" {
		t.Errorf("columns = %v", ch.Columns)
	}
	if ch.Widths[0] != 10 || ch.Widths[1] != 17 {
		t.Errorf("widths = %v", ch.Widths)
	}
}

func TestDetectIgnoresBrokenChains(t *testing.T) {
	p := chainProgram()
	// Break the permutation threading: the lookup reorders by something
	// else, so the second sort is an independent chain of length one.
	p.Instrs[2].Args[1] = "unrelated"
	if chains := DetectSortChains(p); len(chains) != 0 {
		t.Fatalf("broken chain detected: %+v", chains)
	}
}

func TestRewriteReplacesChain(t *testing.T) {
	// Columns shaped like Ex1 (10-bit + 17-bit, modest distincts): the
	// search stitches them, so the rewriter must emit Code-Massage and
	// drop the intermediate Lookup round.
	stats := map[string]costmodel.ColumnStats{
		"a": synthStats(10, 10),
		"b": synthStats(17, 13),
	}
	r := &Rewriter{
		Model: costmodel.Builtin(),
		Stats: func(col string) (costmodel.ColumnStats, bool) {
			cs, ok := stats[col]
			return cs, ok
		},
		Rows: 1 << 20,
		Kind: planner.OrderBy,
		Rho:  -1,
	}
	out, n := r.Rewrite(chainProgram())
	if n != 1 {
		t.Fatalf("rewrote %d chains, want 1\n%s", n, out)
	}
	s := out.String()
	if !strings.Contains(s, "Code-Massage") {
		t.Fatalf("no Code-Massage emitted:\n%s", s)
	}
	// The surrounding instructions survive.
	if !strings.Contains(s, "Scan") || !strings.Contains(s, "Aggregate") {
		t.Fatalf("context instructions lost:\n%s", s)
	}
	// Count sorts: a profitable rewrite of this chain uses fewer or
	// equal rounds and no more lookups than the original.
	if c := strings.Count(s, "SIMD-Sort"); c > 2 {
		t.Errorf("rewritten plan has %d sorts, want <= 2:\n%s", c, s)
	}
}

func TestRewriteKeepsUnprofitableChain(t *testing.T) {
	// Two 48-bit columns with full-entropy prefixes and *tiny* row
	// count: overheads dominate and the search stays on P0, so the
	// chain must be left intact.
	r := &Rewriter{
		Model: costmodel.Builtin(),
		Stats: func(col string) (costmodel.ColumnStats, bool) {
			return costmodel.ColumnStats{}, false
		},
		Rows: 64,
		Kind: planner.OrderBy,
		Rho:  0.05, // bounded: W=96 has 3^12 bank combinations unbounded
	}
	p := &Program{Instrs: []Instr{
		{Op: OpSIMDSort, Out: []string{"oid1", "grp1"}, Args: []string{"a", "64", "nil"}, Bank: 64, Width: 48},
		{Op: OpLookup, Out: []string{"b1"}, Args: []string{"b", "oid1"}},
		{Op: OpSIMDSort, Out: []string{"oid2", "grp2"}, Args: []string{"b1", "64", "grp1"}, Bank: 64, Width: 48},
	}}
	out, n := r.Rewrite(p)
	if n == 0 {
		if len(out.Instrs) != 3 {
			t.Fatalf("unrewritten program mutated:\n%s", out)
		}
		return
	}
	// If the model did find a better plan at this scale, the rewrite
	// must still be structurally valid (massage first, sorts after).
	if out.Instrs[0].Op != OpCodeMassage {
		t.Fatalf("rewrite must start with Code-Massage:\n%s", out)
	}
}

func TestProgramString(t *testing.T) {
	s := chainProgram().String()
	for _, want := range []string{"SIMD-Sort", "Lookup", "[10/[16]]", "[17/[32]]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// synthStats builds a prefix-distinct profile for a w-bit column with
// 2^d distinct values spread over the domain.
func synthStats(w, d int) costmodel.ColumnStats {
	pd := make([]float64, w+1)
	pd[0] = 1
	for t := 1; t <= w; t++ {
		pd[t] = pd[t-1] * 2
		max := float64(uint64(1) << uint(d))
		if pd[t] > max {
			pd[t] = max
		}
	}
	return costmodel.ColumnStats{Width: w, PrefixDistinct: pd}
}
