// Package mcs is the public API of the multi-column sorting library: a
// Go reproduction of "Fast Multi-Column Sorting in Main-Memory
// Column-Stores" (Xu, Feng, Lo — SIGMOD 2016).
//
// The entry point is Sort: give it the encoded sort columns (codes,
// widths, directions) and it plans and executes a multi-column sort,
// returning the sorted permutation of object identifiers and the tied
// groups. With massaging enabled (the default), a cost-based plan search
// first chooses how to repartition the columns' bits into sorting
// rounds — stitching columns together or borrowing bits between them —
// to minimize the model's estimated multi-column sorting time.
//
//	cols := []mcs.Column{
//	    {Codes: dates, Width: 12},
//	    {Codes: prices, Width: 17, Desc: true},
//	}
//	res, err := mcs.Sort(cols, nil)
//	// res.Perm is the sorted oid order; res.Plan what was executed.
//
// The heavy lifting lives in the internal packages; this package wires
// them together and re-exports the types a caller needs to name.
package mcs

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
	"repro/internal/planner"
)

// Column is one sort key column: fixed-width codes (each < 2^Width, as
// the colstore encoders produce; Sort refuses others) and a direction.
type Column struct {
	Codes []uint64
	Width int
	Desc  bool
}

// Plan is a code-massage plan: how the concatenated key bits are
// partitioned into sorting rounds, in the paper's {R₁: w/[b], …}
// notation.
type Plan = plan.Plan

// Round is one sorting round of a Plan.
type Round = plan.Round

// Clause tells the planner whether the column order is fixed (OrderBy)
// or free to permute (GroupBy, PartitionBy) — free order multiplies the
// plan space by m!.
type Clause = planner.ClauseKind

// Clause kinds.
const (
	OrderBy     = planner.OrderBy
	GroupBy     = planner.GroupBy
	PartitionBy = planner.PartitionBy
)

// Model is the architecture-aware cost model the plan search prices
// plans with.
type Model = costmodel.Model

// PipelineError is the typed failure of one pipeline worker: the stage
// it ran ("massage", "sort", "merge", "permute", "gather", "aggregate"),
// the sorting round and worker index (-1 when not applicable), and the
// underlying cause — including recovered worker panics, which are
// contained into this type instead of crashing the process. Match with
// errors.As:
//
//	var pe *mcs.PipelineError
//	if errors.As(err, &pe) { log.Printf("stage %s failed", pe.Stage) }
type PipelineError = pipeerr.PipelineError

// ErrBudgetExceeded reports that a sort was refused because its
// estimated memory footprint exceeds Options.MaxBytes even after
// degrading to sequential execution. Match with errors.Is.
var ErrBudgetExceeded = pipeerr.ErrBudgetExceeded

// Timings is the per-phase wall-time breakdown of a sort.
type Timings = mcsort.Timings

// Options tunes Sort. The zero value (or nil) means: massaging on,
// ORDER BY semantics, ρ = 0.1%, the builtin cost model,
// single-threaded.
type Options struct {
	// Massaging disables the plan search when false: the columns are
	// sorted column-at-a-time (the baseline P₀ of the paper).
	Massaging *bool
	// Clause selects the planner's freedom; defaults to OrderBy.
	Clause Clause
	// Rho is the plan-search time threshold ρ (default 0.001 = 0.1%),
	// read between column orders: a GROUP BY search may stop after its
	// first order, an ORDER BY search, which has one, never depends on it.
	Rho float64
	// Model overrides the cost model; nil means the builtin model
	// (costmodel.Builtin). LoadModel reads a saved calibration profile.
	Model *Model
	// Plan skips the search entirely and executes the given plan.
	Plan *Plan
	// Workers parallelizes the whole sort pipeline when > 1: massaging,
	// the range-partitioned first-round sort, the group-distributed
	// later rounds, and the key-permute passes between rounds. Output is
	// byte-identical for any value (docs/parallelism.md, the tie contract).
	Workers int
	// MaxBytes bounds the estimated transient memory footprint of the
	// sort. When the estimate at the requested worker count exceeds it,
	// workers are halved until it fits; when even sequential execution
	// does not fit, Sort refuses with ErrBudgetExceeded. <= 0 means
	// unlimited.
	MaxBytes int64
}

// Result of a multi-column sort.
type Result struct {
	// Perm is the sorted order: Perm[i] is the oid (input row index) of
	// the i-th tuple under the sort.
	Perm []uint32
	// Groups bound the runs of tuples equal on every sort column:
	// group g is Perm[Groups[g]:Groups[g+1]].
	Groups []int32
	// Plan is the executed massage plan; ColOrder the column
	// permutation chosen for free-order clauses (identity for OrderBy).
	Plan     Plan
	ColOrder []int
	// Timings breaks down where the time went.
	Timings Timings
	// Estimated is the model's cost estimate of the chosen plan in
	// nanoseconds (0 when massaging was off or a plan was supplied).
	Estimated float64
}

// Sort sorts rows by the given columns (lexicographically, honoring each
// column's direction) and returns the permutation and tie groups.
func Sort(cols []Column, opts *Options) (*Result, error) {
	return SortContext(context.Background(), cols, opts)
}

// SortContext is Sort with cooperative cancellation, fault containment,
// and budget degradation: a cancelled or deadline-expired context makes
// the sort return ctx.Err() within one chunk of work with no goroutine
// leaks; a panicking worker surfaces as a *PipelineError naming the
// stage instead of crashing the process; Options.MaxBytes degrades the
// worker count or refuses with ErrBudgetExceeded. On any error the
// returned Result is nil and the input columns are untouched.
func SortContext(ctx context.Context, cols []Column, opts *Options) (*Result, error) {
	if len(cols) == 0 {
		return nil, errors.New("mcs: no sort columns")
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	n := len(cols[0].Codes)
	inputs := make([]massage.Input, len(cols))
	widths := make([]int, len(cols))
	for i, c := range cols {
		if err := ctx.Err(); err != nil {
			return nil, pipeerr.NoteCancel(err)
		}
		if len(c.Codes) != n {
			return nil, fmt.Errorf("mcs: column %d has %d rows, want %d", i, len(c.Codes), n)
		}
		if err := (&column.Column{Name: strconv.Itoa(i), Width: c.Width, Codes: c.Codes}).Validate(); err != nil {
			return nil, fmt.Errorf("mcs: %w", err)
		}
		inputs[i] = massage.Input{Codes: c.Codes, Width: c.Width, Desc: c.Desc}
		widths[i] = c.Width
	}

	// The engine plans and sorts: a supplied plan keeps the clause order.
	q := engine.Query{Kind: o.Clause}
	eopts := engine.Options{Massaging: o.Massaging == nil || *o.Massaging, Model: o.Model, Rho: o.Rho,
		Workers: o.Workers, MaxBytes: o.MaxBytes}
	if o.Plan != nil {
		eopts.PlanOverride = &planner.Choice{ColOrder: planner.IdentityOrder(len(cols)), Plan: *o.Plan}
	}
	choice, _, err := engine.Choose(ctx, q, widths, func() (costmodel.Stats, error) { return sampleStats(cols, widths), nil }, eopts)
	if err != nil {
		return nil, pipeerr.NoteCancel(err)
	}
	mres, _, err := engine.SortColumns(ctx, q, inputs, choice, eopts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Perm:      mres.Perm,
		Groups:    mres.Groups,
		Plan:      choice.Plan,
		ColOrder:  choice.ColOrder,
		Timings:   mres.Timings,
		Estimated: choice.Est,
	}, nil
}

// ColumnAtATime returns the baseline plan P₀ for the column widths.
func ColumnAtATime(widths []int) Plan { return plan.ColumnAtATime(widths) }

// LoadModel reads a calibration profile (cmd/calibrate writes one) and
// refuses a malformed one.
func LoadModel(path string) (*Model, error) { return costmodel.Load(path) }

// sampleStats profiles each column's leading rows
// (costmodel.SampleColumnStats) for the plan search.
func sampleStats(cols []Column, widths []int) costmodel.Stats {
	st := costmodel.Stats{N: len(cols[0].Codes), Cols: make([]costmodel.ColumnStats, len(cols))}
	for i, c := range cols {
		st.Cols[i] = costmodel.SampleColumnStats(len(c.Codes), widths[i], func(sample []uint64) { copy(sample, c.Codes) })
	}
	return st
}

// Off and On are convenience pointers for Options.Massaging.
var (
	offValue = false
	onValue  = true
	// Off disables code massaging (column-at-a-time baseline).
	Off = &offValue
	// On enables code massaging explicitly (it is also the default).
	On = &onValue
)
