// Package column implements fixed-width encoded columns and
// order-preserving dictionary encoding, the storage model of the paper
// (Section 2, "Column Encoding"): every native value — integer, string,
// date, or scaled decimal — is represented as an unsigned integer code of
// a fixed bit width, with code order matching value order.
package column

import (
	"fmt"
	"math/bits"
	"sort"
)

// Column is a fixed-width code column. Codes are stored one per uint64;
// every code is less than 2^Width.
type Column struct {
	Name  string
	Width int      // bits per code (1..64)
	Codes []uint64 // one code per row
}

// Validate checks that every code fits the declared width.
func (c *Column) Validate() error {
	if c.Width < 1 || c.Width > 64 {
		return fmt.Errorf("column %q: width %d out of range", c.Name, c.Width)
	}
	mask := Mask(c.Width)
	for i, v := range c.Codes {
		if v&^mask != 0 {
			return fmt.Errorf("column %q: code %d at row %d exceeds %d bits", c.Name, v, i, c.Width)
		}
	}
	return nil
}

// Mask returns the w-bit all-ones mask.
func Mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// WidthFor returns the number of bits needed to distinguish n distinct
// codes 0..n-1 (at least 1).
func WidthFor(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Size returns size(w) of the paper: the byte width of the smallest
// power-of-two-sized integer type that holds a w-bit code, e.g.
// Size(15) = 2 (int16) and Size(17) = 4 (int32).
func Size(w int) int {
	bytes := (w + 7) / 8
	p := 1
	for p < bytes {
		p *= 2
	}
	return p
}

// Complement returns the width-local bitwise complement of code v: the
// transformation applied to DESC columns before stitching (footnote 5 of
// the paper: complement of (101)₂ in 3 bits is (010)₂).
func Complement(v uint64, w int) uint64 {
	return ^v & Mask(w)
}

// IntDict is an order-preserving dictionary over int64 values.
type IntDict struct {
	Values []int64 // sorted; code i decodes to Values[i]
}

// Decode maps a code back to its native value.
func (d *IntDict) Decode(code uint64) int64 { return d.Values[code] }

// EncodeInts dictionary-encodes vals into a column named name. Codes are
// dense ranks in value order, so code comparison equals value comparison.
func EncodeInts(name string, vals []int64) (*Column, *IntDict) {
	distinct := make([]int64, 0, len(vals))
	seen := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			distinct = append(distinct, v)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	rank := make(map[int64]uint64, len(distinct))
	for i, v := range distinct {
		rank[v] = uint64(i)
	}
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		codes[i] = rank[v]
	}
	return &Column{Name: name, Width: WidthFor(len(distinct)), Codes: codes},
		&IntDict{Values: distinct}
}

// StringDict is an order-preserving dictionary over strings.
type StringDict struct {
	Values []string
}

// Decode maps a code back to its native string.
func (d *StringDict) Decode(code uint64) string { return d.Values[code] }

// EncodeStrings dictionary-encodes string values (sorted dictionary, as
// in order-preserving string compression for column stores).
func EncodeStrings(name string, vals []string) (*Column, *StringDict) {
	distinct := make([]string, 0, len(vals))
	seen := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			distinct = append(distinct, v)
		}
	}
	sort.Strings(distinct)
	rank := make(map[string]uint64, len(distinct))
	for i, v := range distinct {
		rank[v] = uint64(i)
	}
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		codes[i] = rank[v]
	}
	return &Column{Name: name, Width: WidthFor(len(distinct)), Codes: codes},
		&StringDict{Values: distinct}
}

// EncodeDecimals encodes floating-point values with the given number of
// decimal places by scaling to integers (the paper's treatment of
// limited-precision floats).
func EncodeDecimals(name string, vals []float64, places int) (*Column, *IntDict) {
	scale := 1.0
	for i := 0; i < places; i++ {
		scale *= 10
	}
	ints := make([]int64, len(vals))
	for i, v := range vals {
		ints[i] = int64(v*scale + 0.5)
	}
	return EncodeInts(name, ints)
}

// FromCodes wraps pre-encoded codes (already dense, width-checked by the
// caller) into a column; used by the synthetic data generators.
func FromCodes(name string, width int, codes []uint64) *Column {
	return &Column{Name: name, Width: width, Codes: codes}
}
