// Package mal implements the optimizer-integration sketch of the
// paper's Appendix B: a MonetDB-Assembly-Language-style physical plan —
// a flat list of operator instructions over named variables — and the
// Fast-MCS optimizer module, which detects the instruction chains that
// perform column-at-a-time multi-column sorting
//
//	(oid1, grp1) := SIMD-Sort(a, b1, nil)
//	b'           := Lookup(b, oid1)
//	(oid2, grp2) := SIMD-Sort(b', b2, grp1)
//	…
//
// and rewrites them, when the plan search finds a cheaper massage plan,
// into
//
//	s            := Code-Massage(a, b, …)
//	(oid, grp)   := SIMD-Sort(s, b', nil)
//	…
//
// The rewriter works purely on the instruction list; execution of the
// rewritten plan is delegated to the same physical operators the engine
// uses, so rewriting never changes results — only the round structure.
package mal

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/planner"
)

// OpCode is a physical operator of the MAL-like plan language.
type OpCode int

const (
	// OpScan filters a base column into a row list.
	OpScan OpCode = iota
	// OpSIMDSort sorts a column (optionally within groups) by a b-bit
	// bank SIMD sort, producing a permutation and group info.
	OpSIMDSort
	// OpLookup reorders a column by a permutation.
	OpLookup
	// OpCodeMassage forms massaged round keys from source columns.
	OpCodeMassage
	// OpAggregate folds grouped values.
	OpAggregate
)

func (o OpCode) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpSIMDSort:
		return "SIMD-Sort"
	case OpLookup:
		return "Lookup"
	case OpCodeMassage:
		return "Code-Massage"
	default:
		return "Aggregate"
	}
}

// Instr is one instruction: outputs := Op(args) with operator metadata.
type Instr struct {
	Op   OpCode
	Out  []string // result variable names
	Args []string // input variable names
	// Bank is the SIMD bank of an OpSIMDSort; Width its key width.
	Bank, Width int
	// Rounds carries the massage plan of an OpCodeMassage.
	Rounds []plan.Round
}

func (in Instr) String() string {
	var sb strings.Builder
	if len(in.Out) > 0 {
		fmt.Fprintf(&sb, "(%s) := ", strings.Join(in.Out, ", "))
	}
	fmt.Fprintf(&sb, "%s(%s)", in.Op, strings.Join(in.Args, ", "))
	if in.Op == OpSIMDSort {
		fmt.Fprintf(&sb, " [%d/[%d]]", in.Width, in.Bank)
	}
	return sb.String()
}

// Program is an ordered instruction list.
type Program struct {
	Instrs []Instr
}

func (p *Program) String() string {
	lines := make([]string, len(p.Instrs))
	for i, in := range p.Instrs {
		lines[i] = in.String()
	}
	return strings.Join(lines, "\n")
}

// SortChain describes a detected column-at-a-time multi-column sorting
// chain within a program.
type SortChain struct {
	Start, End int      // instruction index range [Start, End)
	Columns    []string // base column variables, in sort order
	Widths     []int
}

// DetectSortChains finds maximal chains of the form
// SIMD-Sort → (Lookup → SIMD-Sort)* where each sort after the first
// consumes the previous sort's permutation and group info.
func DetectSortChains(p *Program) []SortChain {
	var chains []SortChain
	i := 0
	for i < len(p.Instrs) {
		in := p.Instrs[i]
		if in.Op != OpSIMDSort || len(in.Out) < 2 {
			i++
			continue
		}
		chain := SortChain{Start: i, Columns: []string{in.Args[0]}, Widths: []int{in.Width}}
		perm, grp := in.Out[0], in.Out[1]
		j := i + 1
		for j+1 < len(p.Instrs) {
			lk, st := p.Instrs[j], p.Instrs[j+1]
			if lk.Op != OpLookup || st.Op != OpSIMDSort {
				break
			}
			// The lookup must reorder by the chain's permutation and
			// the sort must consume the lookup output and group info.
			if len(lk.Args) != 2 || lk.Args[1] != perm {
				break
			}
			if len(st.Args) < 3 || st.Args[0] != lk.Out[0] || st.Args[2] != grp {
				break
			}
			chain.Columns = append(chain.Columns, lk.Args[0])
			chain.Widths = append(chain.Widths, st.Width)
			perm, grp = st.Out[0], st.Out[1]
			j += 2
		}
		chain.End = j
		if len(chain.Columns) >= 2 {
			chains = append(chains, chain)
		}
		i = j
	}
	return chains
}

// Rewriter is the Fast-MCS optimizer module: it costs each detected
// chain with the model and rewrites it when a massage plan is cheaper.
type Rewriter struct {
	Model *costmodel.Model
	// Stats supplies per-column statistics by base-column variable name.
	Stats func(col string) (costmodel.ColumnStats, bool)
	// Rows is the sort input cardinality.
	Rows int
	// Kind controls column-order freedom (ORDER BY vs GROUP BY).
	Kind planner.ClauseKind
	Rho  float64
}

// Rewrite returns the program with every profitable sort chain replaced
// by Code-Massage + one SIMD-Sort per massaged round, plus the number
// of chains rewritten.
func (r *Rewriter) Rewrite(p *Program) (*Program, int) {
	chains := DetectSortChains(p)
	if len(chains) == 0 {
		return p, 0
	}
	out := &Program{}
	rewritten := 0
	pos := 0
	for _, ch := range chains {
		out.Instrs = append(out.Instrs, p.Instrs[pos:ch.Start]...)
		pos = ch.End

		choice, ok := r.plan(ch)
		if !ok {
			out.Instrs = append(out.Instrs, p.Instrs[ch.Start:ch.End]...)
			continue
		}
		rewritten++
		// One Code-Massage producing a key variable per round, then one
		// SIMD-Sort per round, threading permutation and group info.
		ordered := make([]string, len(choice.ColOrder))
		for i, c := range choice.ColOrder {
			ordered[i] = ch.Columns[c]
		}
		keyVars := make([]string, len(choice.Plan.Rounds))
		for i := range keyVars {
			keyVars[i] = fmt.Sprintf("mk%d_%d", ch.Start, i+1)
		}
		out.Instrs = append(out.Instrs, Instr{
			Op:     OpCodeMassage,
			Out:    keyVars,
			Args:   ordered,
			Rounds: choice.Plan.Rounds,
		})
		perm, grp := "nil", "nil"
		for i, round := range choice.Plan.Rounds {
			sortIn := keyVars[i]
			if i > 0 {
				lkOut := fmt.Sprintf("mk%d_%d_perm", ch.Start, i+1)
				out.Instrs = append(out.Instrs, Instr{
					Op:   OpLookup,
					Out:  []string{lkOut},
					Args: []string{sortIn, perm},
				})
				sortIn = lkOut
			}
			newPerm := fmt.Sprintf("oid%d_%d", ch.Start, i+1)
			newGrp := fmt.Sprintf("grp%d_%d", ch.Start, i+1)
			out.Instrs = append(out.Instrs, Instr{
				Op:    OpSIMDSort,
				Out:   []string{newPerm, newGrp},
				Args:  []string{sortIn, fmt.Sprint(round.Bank), grp},
				Bank:  round.Bank,
				Width: round.Width,
			})
			perm, grp = newPerm, newGrp
		}
	}
	out.Instrs = append(out.Instrs, p.Instrs[pos:]...)
	return out, rewritten
}

// plan runs the search for one chain and reports whether the result
// improves on column-at-a-time.
func (r *Rewriter) plan(ch SortChain) (planner.Choice, bool) {
	st := costmodel.Stats{N: r.Rows}
	for i, col := range ch.Columns {
		cs, ok := r.Stats(col)
		if !ok {
			// Without statistics assume full-entropy prefixes.
			cs = costmodel.ColumnStats{Width: ch.Widths[i], PrefixDistinct: fullEntropy(ch.Widths[i])}
		}
		st.Cols = append(st.Cols, cs)
	}
	search := &planner.Search{Model: r.Model, Stats: st, Kind: r.Kind, Rho: r.Rho}
	// The rewrite pass has no caller context; the search is bounded by
	// ρ instead, and under context.Background() it cannot fail.
	choice, _ := planner.ROGAContext(context.Background(), search)
	p0 := plan.ColumnAtATime(ch.Widths)
	if choice.Plan.Equal(p0) && identityOrder(choice.ColOrder) {
		return choice, false // nothing gained; keep the original chain
	}
	return choice, true
}

func identityOrder(order []int) bool {
	for i, o := range order {
		if o != i {
			return false
		}
	}
	return true
}

func fullEntropy(width int) []float64 {
	pd := make([]float64, width+1)
	pd[0] = 1
	for t := 1; t <= width; t++ {
		pd[t] = pd[t-1] * 2
		if pd[t] > 1e15 {
			pd[t] = 1e15
		}
	}
	return pd
}
