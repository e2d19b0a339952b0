// Package datagen synthesizes the datasets of the paper's evaluation:
// the uniform synthetic columns of Section 3's examples, TPC-H-shaped
// WideTables (uniform and zipf-skewed), a TPC-DS-shaped store_sales
// WideTable, and the Airline Origin & Destination Survey relations of
// Tables 4–5. Real dbgen/dsqgen outputs and the BTS download are not
// available offline, so the generators reproduce what the experiments
// consume: the schema, the encoded code widths, the distinct-value
// cardinalities, and the functional dependencies between columns (via
// proper dimension→fact expansion), at a configurable row count.
//
// The table generators write each column straight into its ByteSlice
// planes (table.AddCodes) and hold no code arrays: dimension attributes
// and fact references are 32-bit, and per-row-unique or constant
// attributes are computed, not stored. Every random draw is made in a
// fixed order, so a seed fixes each table byte for byte.
package datagen

import (
	"math/rand"

	"repro/internal/column"
	"repro/internal/table"
)

// Uniform generates the paper's synthetic column (Section 3): n codes
// drawn uniformly from `distinct` values that are themselves uniformly
// spread over the full [0, 2^width) domain. If width < log2(distinct),
// the full domain is used (footnote 3 of the paper).
func Uniform(rng *rand.Rand, n, width, distinct int) *column.Column {
	vals := distinctValues(rng, width, distinct)
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = vals[rng.Intn(len(vals))]
	}
	return column.FromCodes("uniform", width, codes)
}

// ZipfColumn generates a skewed column: the same distinct-value pool as
// Uniform but with zipf(s≈1) frequencies, the TPC-H skew setting of the
// paper (skew factor z = 1).
func ZipfColumn(rng *rand.Rand, n, width, distinct int) *column.Column {
	vals := distinctValues(rng, width, distinct)
	z := newZipf(rng, len(vals))
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = vals[z.next()]
	}
	return column.FromCodes("zipf", width, codes)
}

// distinctValues returns min(distinct, 2^width) unique values spread
// uniformly over the width-bit domain, in random order.
func distinctValues(rng *rand.Rand, width, distinct int) []uint64 {
	if width < 63 && distinct > 1<<uint(width) {
		distinct = 1 << uint(width)
	}
	if distinct < 1 {
		distinct = 1
	}
	mask := column.Mask(width)
	if width <= 20 && distinct >= 1<<uint(width) {
		// Full domain: enumerate.
		vals := make([]uint64, distinct)
		for i := range vals {
			vals[i] = uint64(i)
		}
		return vals
	}
	seen := make(map[uint64]struct{}, distinct)
	vals := make([]uint64, 0, distinct)
	for len(vals) < distinct {
		v := rng.Uint64() & mask
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			vals = append(vals, v)
		}
	}
	return vals
}

// zipf draws ranks with P(r) ∝ 1/(r+1)^s, s slightly above 1 as
// math/rand.Zipf requires.
type zipf struct{ z *rand.Zipf }

func newZipf(rng *rand.Rand, n int) zipf {
	return zipf{z: rand.NewZipf(rng, 1.0001, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// attr draws one attribute of a dimension's rows 0..n-1, in row order.
// Every attribute's domain fits 32 bits: it is a small constant or a
// pool of dimension rows, no larger than the key domain sparseKeys
// checks.
func attr(n int, gen func(row int) uint64) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(gen(i))
	}
	return vals
}

// via returns the codes of a fact column that reads a dimension
// attribute through a reference column: row i's code is vals[ref[i]].
func via(vals, ref []uint32) func(int) uint64 {
	return func(i int) uint64 { return uint64(vals[ref[i]]) }
}

// spec is a generated column: its name, its width and the code of each
// row.
type spec struct {
	name  string
	width int
	code  func(row int) uint64
}

// addColumns encodes the columns into t, in order: a column whose codes
// are draws makes them while it is added.
func addColumns(t *table.Table, cols []spec) (*table.Table, error) {
	for _, c := range cols {
		if err := t.AddCodes(c.name, c.width, c.code); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// uniformDraw returns a generator of uniform draws over [0, card).
func uniformDraw(rng *rand.Rand, card int) func(int) uint64 {
	return func(int) uint64 { return uint64(rng.Intn(card)) }
}

// skewDraw returns a zipf-skewed generator over [0, card).
func skewDraw(rng *rand.Rand, card int) func(int) uint64 {
	z := newZipf(rng, card)
	return func(int) uint64 { return uint64(z.next()) }
}

// drawFn selects uniform or skewed drawing.
func drawFn(rng *rand.Rand, card int, skewed bool) func(int) uint64 {
	if skewed {
		return skewDraw(rng, card)
	}
	return uniformDraw(rng, card)
}

// bits returns the code width of a dense domain of the given cardinality.
func bits(card int) int { return column.WidthFor(card) }
