// Package a is the determinism golden fixture: map iteration feeding
// ordered outputs, and draws from math/rand's global source (b.go,
// c.go) in library code.
package a

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Keys appends inside a map range: the output order is Go's
// randomized iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order reaches an ordered output \(append`
		out = append(out, k)
	}
	return out
}

// SortedKeys is the sanctioned collect-then-sort pattern: the appended
// slice is sorted before anyone observes it, so the collect loop is
// exempt. The second loop only sums — order-insensitive, also clean.
func SortedKeys(m map[string]int) ([]string, int) {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	total := 0
	for _, v := range m {
		total += v
	}
	return out, total
}

// WrongSort sorts a different slice than the one collected into: the
// collect loop's order still leaks.
func WrongSort(m map[string]int) []string {
	var out, other []string
	for k := range m { // want `map iteration order reaches an ordered output \(append`
		out = append(out, k)
	}
	sort.Strings(other)
	return out
}

// Dump prints while ranging: the byte stream depends on map order.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iteration order reaches an ordered output \(fmt\.Fprintf`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// Fill writes through an index derived during map iteration.
func Fill(m map[int]int, out []int) {
	i := 0
	for _, v := range m { // want `map iteration order reaches an ordered output \(indexed write`
		out[i] = v
		i++
	}
}

// Invert writes into a map while ranging over another: keyed writes
// are order-independent (every iteration order builds the same map),
// so this is clean.
func Invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// Stamp reads the wall clock: measurement, not output order, so it is
// clean.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Elapsed is fine: it never reads the clock itself.
func Elapsed(d time.Duration) string { return d.String() }
