// Package costmodel implements the architecture-aware cost model of the
// paper (Section 4): closed-form estimates of the four subcosts of
// multi-column sorting — lookup, massaging, sort, and scan — with
// machine-dependent constants. The sort term prices the kernel that
// serves queries, the stable LSD radix sort of internal/mergesort
// (TRadix). Model.Sort is the one seam for another kernel's term: the
// paper's SIMD merge-sort term lives beside that kernel
// (internal/mergesort/paper's Model), and only the experiments plug it
// in. Production plans with Builtin or a profile read by Load; the
// calibration that fits a profile from controlled runs lives with the
// experiments (internal/experiments).
//
// All times are in nanoseconds. Constants are "per element" unless noted.
package costmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"

	"repro/internal/column"
	"repro/internal/mergesort"
)

// Constants holds every calibrated parameter of the model.
type Constants struct {
	CCache   float64 // random access latency when the item is cached
	CMem     float64 // random access latency on a cache miss
	CMassage float64 // per FIP invocation per row
	// CMassageKey is per row per round key the massage writes: the
	// allocation and store of one key, which Equation 4 leaves out.
	CMassageKey float64
	// CGatherPlane is per row per byte plane of the ByteSlice gather the
	// massage runs over its source columns — an unlimited plan's over
	// every column, a truncated first round's over its own — since no
	// sort column is materialized before the sort (tSourceGather).
	CGatherPlane float64
	CScan        float64 // per row of group-extraction scan
	// CScanGroup is per group boundary the scan emits, which Equation 9
	// leaves out.
	CScanGroup float64
	// The radix kernel (internal/mergesort/radix.go), T_sort of every
	// plan that has no Model.Sort plugged in (TRadix):
	RadixOffsets    float64 // per call per live digit per 256 counters it prefix-sums
	RadixCount      float64 // per row: the counting sweep
	RadixCountHist  float64 // per row per histogram the sweep fills
	RadixScatter    float64 // per row per live 8-bit digit, pairs within M_L2
	RadixScatterMem float64 // per row per 8 key bits, pairs beyond M_L2
	// RadixWordScatter and RadixWordScatterMem are RadixScatter and
	// RadixScatterMem for the packed key<<32 | oid words the kernel sorts
	// in banks of at most 32 bits from mergesort.PackMinRows rows on.
	RadixWordScatter    float64
	RadixWordScatterMem float64
	// RadixAlloc is per row of a sort that allocates its scratch, per 24
	// bytes of it: a first round's sort of all rows and the top-K
	// survivor sort, whose scratch is fresh memory. Later rounds' group
	// sorts share one scratch per batch.
	RadixAlloc float64
	// Select is the top-K sort's radix select (mergesort/topk.go): per
	// row per pass, the compaction of the kept rows included.
	Select float64
	// Small-sort regime (TSmall): runs below a kernel's insertion
	// cutoff (mergesort.SmallRunCutoff for the radix kernel) are
	// insertion-sorted by mergesort.InsertionSort under both kernels:
	// T = SmallCall + SmallElem·n + SmallQuad·n².
	SmallCall float64
	SmallElem float64
	SmallQuad float64
}

// SortTerm prices one sort call of n rows whose round key is width bits
// wide in a bank-bit bank; dup is the duplicate fraction of the keys.
// The paper kernel's term (internal/mergesort/paper's Model.Sort) is
// one.
type SortTerm func(m *Model, n float64, bank, width int, dup float64) float64

// Model is the cost model: calibrated constants plus the cache geometry
// they were calibrated against.
type Model struct {
	C   Constants
	L2  int64 // M_L2 in bytes
	LLC int64 // M_LLC in bytes
	// Sort, when set, replaces the radix kernel's sort term, the top-K
	// sort's sort of its kept rows included. Nil — every
	// model production plans with — prices the radix kernel. It is not
	// saved: a profile always loads without it.
	Sort SortTerm `json:"-"`
}

// Builtin returns a process-independent model with fixed constants: the
// model of every engine, library and mcsd process that is not handed a
// saved profile, so plan choices are deterministic across machines. Its
// insertion, lookup, massage and scan constants are the per-constant
// medians of nine seeded runs of internal/experiments' Calibrate on a
// 2-vCPU KVM Xeon (2 MB L2), frozen; its radix and select constants
// were refit when the kernel began packing words, as those medians
// scaled by the ratio of the new calibrateRadix fit to the old one over
// 15 interleaved pairs on the same machine (EXPERIMENTS.md has the fits
// and their per-term error); M_L2 is that machine's, M_LLC a
// conservative 8 MB. CGatherPlane came later: the median of nine runs
// on a 2-vCPU KVM machine that ran the massage 2.2× slower than the
// freeze (1.33 ns), scaled by the ratio of CMassage to those runs'
// median CMassage (1.54 / 3.42). Plan quality degrades gracefully when
// they are off, correctness never depends on them.
func Builtin() *Model {
	return &Model{
		L2:  1 << 21,
		LLC: 1 << 23,
		C: Constants{
			CCache:              3.97,
			CMem:                9.00,
			CMassage:            1.54,
			CMassageKey:         1.47,
			CGatherPlane:        0.60,
			CScan:               1.34,
			CScanGroup:          2.82,
			RadixOffsets:        21.8,
			RadixCount:          1.78,
			RadixCountHist:      0.373,
			RadixScatter:        1.77,
			RadixScatterMem:     5.69,
			RadixWordScatter:    2.31,
			RadixWordScatterMem: 4.02,
			RadixAlloc:          2.62,
			Select:              2.76,
			SmallCall:           0,
			SmallElem:           10.1,
			SmallQuad:           0.196,
		},
	}
}

// ColumnStats summarizes one sort column for the estimator.
type ColumnStats struct {
	Width int
	// PrefixDistinct[t] is the number of distinct values of the top t
	// bits of the column (t = 0..Width; PrefixDistinct[0] = 1).
	PrefixDistinct []float64
}

// Stats are the input statistics the model consumes: the row count and
// per-column prefix-distinct profiles, in sort-clause order.
type Stats struct {
	N    int
	Cols []ColumnStats
	// LimitRows is the query's output row-rank truncation target
	// (offset+limit) when the LIMIT path runs in row units (window
	// queries): round 1 becomes a top-K filter plus a sort of the ~
	// LimitRows survivors, and later rounds massage, gather, sort, and
	// scan survivors only (docs/topk.md). 0 = unlimited; then every
	// estimate reproduces the unlimited model exactly.
	LimitRows int
	// LimitGroups is the truncation target in group units (group-by
	// queries): round 1 sorts fully, later rounds shrink to the rows of
	// the first LimitGroups groups. 0 = unlimited.
	LimitGroups int
}

// Permute returns the stats with columns reordered by perm: Cols[i] of
// the result is Cols[perm[i]] of s. Used when searching GROUP BY /
// PARTITION BY plan spaces, where the column order is free.
func (s Stats) Permute(perm []int) Stats {
	cols := make([]ColumnStats, len(perm))
	for i, p := range perm {
		cols[i] = s.Cols[p]
	}
	return Stats{N: s.N, Cols: cols, LimitRows: s.LimitRows, LimitGroups: s.LimitGroups}
}

// TotalWidth returns the summed column width W.
func (s Stats) TotalWidth() int {
	w := 0
	for _, c := range s.Cols {
		w += c.Width
	}
	return w
}

// distinctOfPrefix returns the estimated number of distinct values of
// the first s bits of the column concatenation, assuming column
// independence: the product of the fully covered columns' distinct
// counts and the partially covered column's prefix-distinct count.
func (s Stats) distinctOfPrefix(bits int) float64 {
	d := 1.0
	remaining := bits
	for _, c := range s.Cols {
		if remaining <= 0 {
			break
		}
		t := remaining
		if t > c.Width {
			t = c.Width
		}
		d *= c.PrefixDistinct[t]
		remaining -= c.Width
		if d > float64(s.N)*4 {
			// Far beyond the row count every tuple is distinct anyway;
			// cap to avoid overflow in the occupancy formulas.
			return float64(s.N) * 4
		}
	}
	return d
}

// TLookup is Equation 3: N random accesses into a w-bit column with a
// cache hit ratio of M_LLC / (N·size(w)), clamped to [0, 1].
func (m *Model) TLookup(n int, w int) float64 {
	if n == 0 {
		return 0
	}
	footprint := float64(n) * float64(column.Size(w))
	hit := float64(m.LLC) / footprint
	if hit > 1 {
		hit = 1
	}
	return float64(n) * (m.C.CCache*hit + m.C.CMem*(1-hit))
}

// tGather is the lookup of a deferred round under a row or group limit
// (mcsort's gather-fused massage): count survivors read from each of
// the round's fips input columns through the permutation — a random
// access per column into its ByteSlice, whose planes (n bytes each,
// planes of them over the fips columns) set the hit ratio against M_LLC
// as in Equation 3.
func (m *Model) tGather(count, n, fips, planes int) float64 {
	if count == 0 || fips == 0 {
		return 0
	}
	hit := min(float64(m.LLC)/(float64(n)*float64(planes)), 1)
	return float64(fips*count) * (m.C.CCache*hit + m.C.CMem*(1-hit))
}

// tSourceGather is the massage's read of its source columns: nothing is
// materialized before the sort, so the massage first decodes every
// row's code of each source column from its ByteSlice, a block at a
// time in selection order — planes byte planes per row. An unlimited
// plan reads every column once; under a row or group limit it is the
// first round's columns.
func (m *Model) tSourceGather(n, planes int) float64 {
	return m.C.CGatherPlane * float64(n) * float64(planes)
}

// TMassage is Equation 4, I_FIP four-instruction programs over n rows,
// plus the writes of the round keys (keys of them) the programs build.
func (m *Model) TMassage(iFIP, keys, n int) float64 {
	return (float64(iFIP)*m.C.CMassage + float64(keys)*m.C.CMassageKey) * float64(n)
}

// TScan is Equation 9, one sequential pass over n rows extracting group
// boundaries, plus the appends of the boundaries it emits (groups of
// them).
func (m *Model) TScan(n int, groups float64) float64 {
	return m.C.CScan*float64(n) + m.C.CScanGroup*groups
}

// TRadix is the radix kernel's T_sort: one sort call over n (key, oid)
// rows whose key is width bits wide in a bank-bit bank, as
// mergesort.SortScratchContext runs it on a reused scratch. Below
// mergesort.SmallRunCutoff rows it is the insertion sort. Above, it is
// one counting sweep that fills every digit's histogram, then per live
// digit a prefix sum of its counters and a scatter of every row. A digit
// every key agrees on is skipped, so there are ⌈width/b⌉ live digits of
// b bits: the round's width and not its bank sets the scatter count. The
// layout is the kernel's own (mergesort.LayoutOf): from
// mergesort.PackMinRows rows on, a bank of at most 32 bits moves 8-byte
// packed words on digits of up to 11 bits (RadixWordScatter*), every
// other sort 12-byte (key, oid) pairs on 8-bit digits (RadixScatter*). A scatter's cost per
// row follows where its source and destination (16 or 24 bytes a row)
// live, as Equation 3 prices a lookup: the per-pass constant within
// M_L2; beyond it the Mem constant per 8 key bits, since a digit of b
// live bits spreads its writes over 2^b buckets — the 2-bit top digit
// of an 18-bit key misses far less than a full one.
func (m *Model) TRadix(n float64, bank, width int) float64 {
	if n < 2 {
		return 0
	}
	if n < mergesort.SmallRunCutoff {
		return m.TSmall(n)
	}
	l := mergesort.LayoutOf(n, bank, width)
	scatter, mem := m.C.RadixScatter, m.C.RadixScatterMem
	if l.Packed {
		scatter, mem = m.C.RadixWordScatter, m.C.RadixWordScatterMem
	}
	digits := float64(l.Digits)
	hit := min(float64(m.L2)/(l.RowBytes*n), 1)
	perRow := scatter*digits*hit + mem*float64(width)/8*(1-hit)
	offsets := m.C.RadixOffsets * digits * float64(int(1)<<l.Bits) / 256
	return offsets + n*(m.C.RadixCount+m.C.RadixCountHist*float64(l.Hists)+perRow)
}

// tRadixFresh is TRadix for a sort that allocates its scratch.
func (m *Model) tRadixFresh(n float64, bank, width int) float64 {
	t := m.TRadix(n, bank, width)
	if n >= mergesort.SmallRunCutoff {
		t += m.C.RadixAlloc * n * mergesort.LayoutOf(n, bank, width).ScratchBytes / 24
	}
	return t
}

// TSmall is the insertion-sort regime shared by both kernels: one
// mergesort.InsertionSort call over n rows.
func (m *Model) TSmall(n float64) float64 {
	return m.C.SmallCall + m.C.SmallElem*n + m.C.SmallQuad*n*n
}

// CollectStats computes exact prefix-distinct profiles for each column
// with one sort per column: from the sorted codes, adjacent pairs that
// share L leading bits contribute a split to every prefix width > L.
func CollectStats(cols [][]uint64, widths []int) Stats {
	st := Stats{Cols: make([]ColumnStats, len(cols))}
	if len(cols) > 0 {
		st.N = len(cols[0])
	}
	for i, codes := range cols {
		st.Cols[i] = CollectColumnStats(codes, widths[i])
	}
	return st
}

// CollectColumnStats computes one column's prefix-distinct profile; the
// WideTable caches these per column (SampleColumnStats) so plan search
// does not pay for statistics collection at query time (as in any DBMS,
// statistics are maintained ahead of queries). It sorts a copy of
// codes, which must fit width bits.
func CollectColumnStats(codes []uint64, width int) ColumnStats {
	buf := make([]uint64, 2*len(codes))
	copy(buf, codes)
	return collectInPlace(buf[:len(codes)], buf[len(codes):], width)
}

// StatsSample is the number of leading rows a column's statistics
// profile samples: beyond it, prefix-distinct profiles change little.
const StatsSample = 1 << 16

// samplePool holds the buffers SampleColumnStats decodes a sample into
// and sorts it with, so profiling one column after another reuses one
// buffer and no profile keeps it alive.
var samplePool = sync.Pool{New: func() any { return new([]uint64) }}

// SampleColumnStats is the prefix-distinct profile of a column of n
// codes of the given width, taken from its first min(n, StatsSample)
// codes, which decode writes into the slice it is handed.
func SampleColumnStats(n, width int, decode func(sample []uint64)) ColumnStats {
	k := min(n, StatsSample)
	bp := samplePool.Get().(*[]uint64)
	if cap(*bp) < 2*k {
		*bp = make([]uint64, 2*StatsSample)
	}
	buf := (*bp)[:2*k]
	decode(buf[:k])
	cs := collectInPlace(buf[:k], buf[k:], width)
	samplePool.Put(bp)
	return cs
}

// collectInPlace is CollectColumnStats that sorts codes itself, with
// scratch (at least as long) as the sort's second buffer.
func collectInPlace(codes, scratch []uint64, width int) ColumnStats {
	cs := ColumnStats{Width: width, PrefixDistinct: make([]float64, width+1)}
	cs.PrefixDistinct[0] = 1
	if len(codes) == 0 {
		for t := 1; t <= width; t++ {
			cs.PrefixDistinct[t] = 1
		}
		return cs
	}
	sortUint64(codes, scratch, width)
	// splits[L] = adjacent pairs whose longest common prefix is exactly
	// L bits (counted from the top of the w-bit code).
	splits := make([]int, width+1)
	for i := 1; i < len(codes); i++ {
		x := codes[i-1] ^ codes[i]
		if x == 0 {
			continue
		}
		splits[max(width-bits.Len64(x), 0)]++
	}
	acc := 0
	for t := 1; t <= width; t++ {
		acc += splits[t-1]
		cs.PrefixDistinct[t] = float64(1 + acc)
	}
	return cs
}

// sortUint64 sorts a, whose values fit width bits, with an LSD radix
// sort over its ⌈width/8⌉ low bytes, using buf (at least len(a) long)
// as the second buffer.
func sortUint64(a, buf []uint64, width int) {
	buf = buf[:len(a)]
	src, dst := a, buf
	passes := (width + 7) / 8
	for shift := uint(0); shift < uint(8*passes); shift += 8 {
		var count [257]int
		for _, v := range src {
			count[int(byte(v>>shift))+1]++
		}
		for i := 1; i < 257; i++ {
			count[i] += count[i-1]
		}
		for _, v := range src {
			b := int(byte(v >> shift))
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(a, buf)
	}
}

// Load reads a model from a JSON profile (cmd/calibrate writes one). It
// ignores keys the model does not hold, such as the paper kernel's
// constants a calibration saves beside it (C.Bank, C.OVCMergeDiscount,
// Fanout), which only the experiments read. It refuses a profile the estimators cannot price: zero radix
// count, scatter, word scatter or select constants (a profile saved
// before the model priced the radix kernel has none, one saved before it
// priced packed words no word scatter) would make every sort, or every
// packed one, free and bias every plan toward the free rounds; a
// non-positive cache size makes every lookup and scatter beyond it
// infinite, and a negative or non-finite constant is no measurement.
// Other zero constants are legal; calibration clamps noise to 0.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("costmodel: profile %s: %w", path, err)
	}
	return &m, nil
}

func (m *Model) validate() error {
	if m.L2 <= 0 || m.LLC <= 0 {
		return fmt.Errorf("cache sizes L2 %d, LLC %d, want > 0", m.L2, m.LLC)
	}
	c := m.C
	if !(c.RadixCount > 0 && c.RadixScatter > 0 && c.RadixWordScatter > 0 && c.Select > 0) {
		return fmt.Errorf("radix constants count %v, scatter %v, word scatter %v, select %v, want > 0 (a profile that does not price the radix kernel)",
			c.RadixCount, c.RadixScatter, c.RadixWordScatter, c.Select)
	}
	consts := []float64{c.CCache, c.CMem, c.CMassage, c.CMassageKey, c.CGatherPlane, c.CScan, c.CScanGroup,
		c.RadixOffsets, c.RadixCount, c.RadixCountHist, c.RadixScatter, c.RadixScatterMem,
		c.RadixWordScatter, c.RadixWordScatterMem, c.RadixAlloc, c.Select,
		c.SmallCall, c.SmallElem, c.SmallQuad}
	for _, v := range consts {
		if !(v >= 0) || math.IsInf(v, 1) { // also catches NaN
			return fmt.Errorf("constant %v, want finite and >= 0", v)
		}
	}
	return nil
}
