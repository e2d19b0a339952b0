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

const statsSample = 1 << 16 // leading rows a statistics profile samples

// Table is a named collection of equal-length columns, each kept only
// as its ByteSlice layout and statistics profile, built as it is added:
// a built table is immutable, so any number of queries may share it.
type Table struct {
	Name  string
	N     int
	bs    map[string]*byteslice.BS
	stats map[string]costmodel.ColumnStats
}

// New creates an empty table expecting n rows.
func New(name string, n int) *Table {
	return &Table{
		Name:  name,
		N:     n,
		bs:    make(map[string]*byteslice.BS),
		stats: make(map[string]costmodel.ColumnStats),
	}
}

// Add attaches a column in its ByteSlice layout; its length must match
// the table and its codes fit its width (the layout keeps only Width
// bits of a code). The table keeps neither c nor its codes.
func (t *Table) Add(c *column.Column) error {
	if len(c.Codes) != t.N {
		return fmt.Errorf("table %s: column %s has %d rows, want %d", t.Name, c.Name, len(c.Codes), t.N)
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("table %s: %w", t.Name, err)
	}
	if _, dup := t.bs[c.Name]; dup {
		return fmt.Errorf("table %s: duplicate column %s", t.Name, c.Name)
	}
	t.put(c.Name, byteslice.FromColumn(c))
	return nil
}

// put attaches bs with the statistics profile of its first rows.
func (t *Table) put(name string, bs *byteslice.BS) {
	t.bs[name] = bs
	t.stats[name] = costmodel.CollectColumnStats(bs.Codes(min(bs.N, statsSample)), bs.Width)
}

// Slice returns rows [lo, hi) of t, 0 <= lo <= hi <= t.N, as a table of
// its own: the same name and columns, each cut from t's planes with its
// width carried.
func (t *Table) Slice(lo, hi int) *Table {
	s := New(t.Name, hi-lo)
	for name, bs := range t.bs {
		s.put(name, bs.Slice(lo, hi))
	}
	return s
}

// ByteSlice returns a column's ByteSlice layout, the one copy of its codes.
func (t *Table) ByteSlice(name string) (*byteslice.BS, error) {
	bs, ok := t.bs[name]
	if !ok {
		return nil, fmt.Errorf("table %s: no column %s", t.Name, name)
	}
	return bs, nil
}

// Stats returns a column's prefix-distinct statistics profile, which the
// plan search reads instead of collecting statistics at query time.
func (t *Table) Stats(name string) (costmodel.ColumnStats, error) {
	st, ok := t.stats[name]
	if !ok {
		return costmodel.ColumnStats{}, fmt.Errorf("table %s: no column %s", t.Name, name)
	}
	return st, nil
}

// Bytes returns the size of the table's ByteSlice planes.
func (t *Table) Bytes() int {
	n := 0
	for _, bs := range t.bs {
		n += bs.Bytes()
	}
	return n
}

// Columns lists the column names in sorted order.
func (t *Table) Columns() []string {
	names := make([]string, 0, len(t.bs))
	for n := range t.bs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
