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
// the table, and AddCodes refuses what else is wrong with it. The table
// keeps neither c nor its codes.
func (t *Table) Add(c *column.Column) error {
	if len(c.Codes) != t.N {
		return fmt.Errorf("table %s: column %s has %d rows, want %d", t.Name, c.Name, len(c.Codes), t.N)
	}
	return t.AddCodes(c.Name, c.Width, func(row int) uint64 { return c.Codes[row] })
}

// encodeBlock is the row count AddCodes checks before it encodes them
// into the planes, one plane at a time (byteslice.BS.Encode).
const encodeBlock = 1024

// AddCodes attaches a column of the given width whose code at each row
// is code(row), encoding the codes into its ByteSlice planes a block at
// a time (the layout keeps only width bits of a code). It refuses a width
// outside 1..64, a duplicate name and a code wider than width, and a
// refused column leaves t as it was.
func (t *Table) AddCodes(name string, width int, code func(row int) uint64) error {
	if width < 1 || width > 64 {
		return fmt.Errorf("table %s: column %q: width %d out of range", t.Name, name, width)
	}
	if _, dup := t.bs[name]; dup {
		return fmt.Errorf("table %s: duplicate column %s", t.Name, name)
	}
	bs := byteslice.New(width, t.N)
	mask := column.Mask(width)
	var block [encodeBlock]uint64
	for lo := 0; lo < t.N; lo += encodeBlock {
		b := block[:min(encodeBlock, t.N-lo)]
		for j := range b {
			v := code(lo + j)
			if v&^mask != 0 {
				return fmt.Errorf("table %s: column %q: code %d at row %d exceeds %d bits", t.Name, name, v, lo+j, width)
			}
			b[j] = v
		}
		bs.Encode(b, lo)
	}
	t.put(name, bs)
	return nil
}

// put attaches bs with the statistics profile of its first rows
// (costmodel.SampleColumnStats).
func (t *Table) put(name string, bs *byteslice.BS) {
	t.bs[name] = bs
	t.stats[name] = costmodel.SampleColumnStats(bs.N, bs.Width, func(sample []uint64) { bs.Decode(sample, 0) })
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
