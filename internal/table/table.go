// Package table implements WideTables: denormalized, pre-joined tables
// of encoded columns (Li & Patel's WideTable, reference [31] of the
// paper). Queries — including former join queries — run as scans, sorts
// and lookups over one wide table, which is what makes multi-column
// sorting such a large share of query time (Figure 1).
package table

import (
	"fmt"
	"sort"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
)

// Table is a named collection of equal-length encoded columns, with
// optional ByteSlice representations and statistics profiles built
// lazily per column.
type Table struct {
	Name  string
	N     int
	cols  map[string]*column.Column
	bs    map[string]*byteslice.BS
	stats map[string]costmodel.ColumnStats
}

// New creates an empty table expecting n rows.
func New(name string, n int) *Table {
	return &Table{
		Name:  name,
		N:     n,
		cols:  make(map[string]*column.Column),
		bs:    make(map[string]*byteslice.BS),
		stats: make(map[string]costmodel.ColumnStats),
	}
}

// Add attaches a column; its length must match the table and its codes
// fit its width (the ByteSlice layout keeps only Width bits of a code).
func (t *Table) Add(c *column.Column) error {
	if c.Len() != t.N {
		return fmt.Errorf("table %s: column %s has %d rows, want %d", t.Name, c.Name, c.Len(), t.N)
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("table %s: %w", t.Name, err)
	}
	if _, dup := t.cols[c.Name]; dup {
		return fmt.Errorf("table %s: duplicate column %s", t.Name, c.Name)
	}
	t.cols[c.Name] = c
	return nil
}

// Col returns a column by name.
func (t *Table) Col(name string) (*column.Column, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("table %s: no column %s", t.Name, name)
	}
	return c, nil
}

// ByteSlice returns (building on first use) the ByteSlice layout of a
// column, the representation the scan operator reads.
func (t *Table) ByteSlice(name string) (*byteslice.BS, error) {
	if bs, ok := t.bs[name]; ok {
		return bs, nil
	}
	c, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	bs := byteslice.FromColumn(c)
	t.bs[name] = bs
	return bs, nil
}

// Stats returns (building on first use) the column's prefix-distinct
// statistics profile — the precomputed table statistics the plan search
// consumes, so query-time planning never pays for stats collection.
// Profiles are computed on a bounded sample of the column.
func (t *Table) Stats(name string) (costmodel.ColumnStats, error) {
	if st, ok := t.stats[name]; ok {
		return st, nil
	}
	c, err := t.Col(name)
	if err != nil {
		return costmodel.ColumnStats{}, err
	}
	codes := c.Codes
	const statsSample = 1 << 16
	if len(codes) > statsSample {
		codes = codes[:statsSample]
	}
	st := costmodel.CollectColumnStats(codes, c.Width)
	t.stats[name] = st
	return st, nil
}

// Columns lists the column names in sorted order.
func (t *Table) Columns() []string {
	names := make([]string, 0, len(t.cols))
	for n := range t.cols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
