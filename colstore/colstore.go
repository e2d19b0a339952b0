// Package colstore is the public column-store API of the library: order-
// preserving dictionary encoding, WideTables of encoded columns, the
// ByteSlice scan/lookup layout, and a declarative query runner with the
// paper's physical operators (ByteSlice-Scan, ByteSlice-Lookup,
// Code-Massage, SIMD-Sort, aggregation, window RANK).
//
// A typical flow: encode native values into Columns, assemble a Table,
// describe a query (filters, sort clause, aggregate or window) and Run
// it — with code massaging on or off to compare.
package colstore

import (
	"context"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/pipeerr"
	"repro/internal/table"
)

// Column is a fixed-width encoded column.
type Column = column.Column

// IntDict and StringDict decode codes back to native values.
type (
	IntDict    = column.IntDict
	StringDict = column.StringDict
)

// Encoders: order-preserving dictionary encodings for the native types.
var (
	EncodeInts     = column.EncodeInts
	EncodeStrings  = column.EncodeStrings
	EncodeDecimals = column.EncodeDecimals
	FromCodes      = column.FromCodes
)

// Table is a WideTable of equal-length encoded columns.
type Table = table.Table

// NewTable creates an empty table expecting n rows.
func NewTable(name string, n int) *Table { return table.New(name, n) }

// Predicate operators for filters.
type Op = byteslice.Op

// Comparison operators.
const (
	LT  = byteslice.LT
	LE  = byteslice.LE
	GT  = byteslice.GT
	GE  = byteslice.GE
	EQ  = byteslice.EQ
	NEQ = byteslice.NEQ
)

// Query building blocks.
type (
	Query   = engine.Query
	SortCol = engine.SortCol
	Filter  = engine.Filter
	Agg     = engine.Agg
	Window  = engine.Window
	Options = engine.Options
	Result  = engine.Result
	Timing  = engine.Timing
)

// Aggregate kinds.
const (
	Count = engine.Count
	Sum   = engine.Sum
	Avg   = engine.Avg
)

// PipelineError identifies the pipeline stage (and round/worker, when
// parallel) behind a contained execution failure or recovered panic.
type PipelineError = pipeerr.PipelineError

// ErrBudgetExceeded is returned when Options.MaxBytes is too small for
// the query even after degrading to a single worker.
var ErrBudgetExceeded = pipeerr.ErrBudgetExceeded

// Run executes a query against a table. Options.Massaging toggles code
// massaging; Options.Model supplies the cost model (nil means
// costmodel.Builtin).
func Run(t *Table, q Query, opts Options) (*Result, error) {
	return engine.RunContext(context.Background(), t, q, opts)
}

// RunContext is Run with cooperative cancellation: a cancelled or
// deadline-expired ctx aborts the query promptly (within one chunk of
// work) and returns ctx.Err().
func RunContext(ctx context.Context, t *Table, q Query, opts Options) (*Result, error) {
	return engine.RunContext(ctx, t, q, opts)
}
