package costmodel

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/mergesort"
	"repro/internal/plan"
)

// uniformStats mirrors the paper's synthetic setup: each w-bit column
// holds `distinct` values drawn uniformly from the full [0, 2^w) domain.
func uniformStats(n int, widths, distinct []int) Stats {
	rng := rand.New(rand.NewSource(7))
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		seen := make(map[uint64]bool, distinct[i])
		vals := make([]uint64, 0, distinct[i])
		for len(vals) < distinct[i] {
			v := rng.Uint64() & column.Mask(w)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		codes := make([]uint64, n)
		for r := range codes {
			codes[r] = vals[rng.Intn(len(vals))]
		}
		cols[i] = codes
	}
	return CollectStats(cols, widths)
}

func TestCollectStatsPrefixDistinct(t *testing.T) {
	// A column holding exactly the values 0..15 in 4 bits: top-t bits
	// have 2^t distinct values.
	codes := make([]uint64, 1600)
	for i := range codes {
		codes[i] = uint64(i % 16)
	}
	st := CollectStats([][]uint64{codes}, []int{4})
	want := []float64{1, 2, 4, 8, 16}
	for tbits, w := range want {
		if got := st.Cols[0].PrefixDistinct[tbits]; got != w {
			t.Errorf("PrefixDistinct[%d] = %v, want %v", tbits, got, w)
		}
	}
}

func TestCollectStatsSkewed(t *testing.T) {
	// All codes share the top bit pattern 10…: top-1 distinct must be 1.
	codes := []uint64{8, 9, 10, 11, 8, 9}
	st := CollectStats([][]uint64{codes}, []int{4})
	pd := st.Cols[0].PrefixDistinct
	if pd[1] != 1 {
		t.Errorf("top-1 distinct = %v, want 1", pd[1])
	}
	if pd[4] != 4 {
		t.Errorf("top-4 distinct = %v, want 4", pd[4])
	}
}

// TestSortUint64: the width-bounded radix sort sorts codes of every
// width 1..64, whether it makes an odd or an even number of byte
// passes, and empty and one-code inputs.
func TestSortUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= 64; w++ {
		for _, n := range []int{0, 1, 2, 100, 4096} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() & column.Mask(w)
			}
			want := append([]uint64(nil), a...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sortUint64(a, make([]uint64, n), w)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("w=%d n=%d: mismatch at %d", w, n, i)
				}
			}
		}
	}
}

func TestTLookupHitRatio(t *testing.T) {
	m := Builtin()
	// Small column: fully cached, cost = N·C_cache.
	small := m.TLookup(1000, 16)
	if small != 1000*m.C.CCache {
		t.Errorf("cached lookup = %v, want %v", small, 1000*m.C.CCache)
	}
	// Huge column: mostly misses; cost per row must approach C_mem.
	huge := m.TLookup(1<<26, 32) / float64(1<<26)
	if huge < 0.8*m.C.CMem {
		t.Errorf("per-row huge lookup = %v, want near %v", huge, m.C.CMem)
	}
	// Monotonic in N per row.
	if m.TLookup(1<<22, 32)/float64(1<<22) > huge {
		t.Error("lookup per-row cost must grow with footprint")
	}
}

func TestGroupProfileOccupancy(t *testing.T) {
	st := uniformStats(100000, []int{8}, []int{256})
	nGroup, nSort, rows := groupProfile(float64(st.N), st.distinctOfPrefix(8))
	// 100k rows over 256 values: every value occupied, no singletons.
	if nGroup < 250 || nGroup > 256 {
		t.Errorf("nGroup = %v, want ≈ 256", nGroup)
	}
	if nSort < 250 {
		t.Errorf("nSort = %v, want ≈ 256", nSort)
	}
	if rows < 99000 {
		t.Errorf("rowsInSorts = %v, want ≈ 100000", rows)
	}
	// Zero bits: everything is one group.
	g, s, r := groupProfile(float64(st.N), st.distinctOfPrefix(0))
	if g != 1 || s != 1 || r != float64(st.N) {
		t.Errorf("groupProfile(0) = %v,%v,%v", g, s, r)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := Builtin()
	path := filepath.Join(t.TempDir(), "cal.json")
	writeProfile(t, path, m)
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.C != m.C || got.L2 != m.L2 || got.LLC != m.LLC {
		t.Errorf("round trip lost fields: %+v, want %+v", got, m)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading missing file must fail")
	}
}

// TestLoadRejectsMalformedProfiles pins Load's validation: each refused
// profile would make the estimators price some sort at 0 or +Inf. Zero
// constants stay legal, as calibration clamps noise to 0.
func TestLoadRejectsMalformedProfiles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *Model)
		ok     bool
	}{
		{"builtin", func(*Model) {}, true},
		{"L2 0", func(m *Model) { m.L2 = 0 }, false},
		{"LLC negative", func(m *Model) { m.LLC = -1 }, false},
		{"negative CMem", func(m *Model) { m.C.CMem = -1 }, false},
		{"zero RadixScatter", func(m *Model) { m.C.RadixScatter = 0 }, false},
		{"zero RadixWordScatter", func(m *Model) { m.C.RadixWordScatter = 0 }, false},
		{"zero RadixWordScatterMem", func(m *Model) { m.C.RadixWordScatterMem = 0 }, true},
		{"zero RadixCount", func(m *Model) { m.C.RadixCount = 0 }, false},
		{"zero Select", func(m *Model) { m.C.Select = 0 }, false},
		{"negative RadixAlloc", func(m *Model) { m.C.RadixAlloc = -1 }, false},
		{"zero RadixAlloc", func(m *Model) { m.C.RadixAlloc = 0 }, true},
	}
	for _, c := range cases {
		m := Builtin()
		c.mutate(m)
		path := filepath.Join(t.TempDir(), "cal.json")
		writeProfile(t, path, m)
		if _, err := Load(path); (err == nil) != c.ok {
			t.Errorf("%s: Load error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// JSON cannot carry NaN or Inf, so only a Model built in code can
	// hold one; validate refuses it all the same.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		m := Builtin()
		m.C.CScan = v
		if m.validate() == nil {
			t.Errorf("validate accepted CScan = %v", v)
		}
	}
}

// writeProfile writes m as the JSON profile Load reads.
func writeProfile(t *testing.T, path string, m *Model) {
	t.Helper()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadIgnoresPaperKeys loads a profile of Builtin() written when
// the model still held the paper kernel's term (testdata): C.Bank,
// C.OVCMergeDiscount and Fanout are not the model's, and the rest must
// load as Builtin, so a saved profile prices every plan as before.
func TestLoadIgnoresPaperKeys(t *testing.T) {
	got, err := Load(filepath.Join("testdata", "profile_builtin_with_paper_term.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := Builtin(); got.C != want.C || got.L2 != want.L2 || got.LLC != want.LLC || got.Sort != nil {
		t.Errorf("loaded %+v, want Builtin %+v", got, want)
	}
}

// TestLoadRejectsProfileWithoutRadixTerm loads a profile saved before
// the model priced the radix kernel (testdata): it has no radix
// constants, so every production sort would cost 0 ns and every search
// would pick one round. Load must refuse it.
func TestLoadRejectsProfileWithoutRadixTerm(t *testing.T) {
	_, err := Load(filepath.Join("testdata", "profile_before_radix.json"))
	if err == nil || !strings.Contains(err.Error(), "radix") {
		t.Fatalf("Load error = %v, want a refusal naming the radix constants", err)
	}
}

// TestTRadixShape pins the radix term's structure: free below two rows,
// the insertion regime below mergesort.SmallRunCutoff, one scatter per
// live digit — the width, not the bank — of 8 bits on pairs and of 11
// on the packed words of a 32-bit bank from mergesort.PackMinRows rows
// on, and a wider
// bank costing only the histograms its counting sweep fills.
func TestTRadixShape(t *testing.T) {
	m := Builtin()
	if m.TRadix(1, 32, 18) != 0 {
		t.Error("a one-row sort must be free")
	}
	if got, want := m.TRadix(mergesort.SmallRunCutoff-1, 64, 64), m.TSmall(mergesort.SmallRunCutoff-1); got != want {
		t.Errorf("below the cutoff: %v, want the insertion regime %v", got, want)
	}
	n := float64(1 << 16)
	if got, want := m.TRadix(n, 64, 17), m.TRadix(n, 64, 24); got != want {
		t.Errorf("17 and 24 bits are three live pair digits each: %v vs %v", got, want)
	}
	if !(m.TRadix(n, 64, 16) < m.TRadix(n, 64, 17)) {
		t.Error("a third live pair digit must cost a scatter")
	}
	if got, want := m.TRadix(n, 32, 12), m.TRadix(n, 32, 22); got != want {
		t.Errorf("12 and 22 bits are two live packed digits each: %v vs %v", got, want)
	}
	if !(m.TRadix(n, 32, 22) < m.TRadix(n, 32, 23)) {
		t.Error("a third live packed digit must cost a scatter")
	}
	if !(m.TRadix(n, 32, 18) < m.TRadix(n, 64, 18)) {
		t.Error("18 bits on two packed digits must cost less than on three pair digits")
	}
	small := float64(mergesort.PackMinRows - 1)
	if got, want := m.TRadix(small, 64, 16)-m.TRadix(small, 16, 16), 6*small*m.C.RadixCountHist; math.Abs(got-want) > 1e-9*want {
		t.Errorf("bank 64 over bank 16 at width 16 costs %v, want the six extra histograms' %v", got, want)
	}
	if !(m.TRadix(1<<20, 32, 32)/(1<<20) > m.TRadix(1<<14, 32, 32)/(1<<14)) {
		t.Error("a scatter beyond M_L2 must cost more per row")
	}
}

// zipfStats is a zipf-skewed GROUP BY over four columns of 5, 5, 3 and
// 5 bits (W = 18) and 2^19 rows, profiled from a seeded 2^16-row
// sample the way a table's statistics are.
func zipfStats() Stats {
	rng := rand.New(rand.NewSource(7))
	widths := []int{5, 5, 3, 5}
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		z := rand.NewZipf(rng, 1.2, 1, uint64(1)<<w-1)
		cols[i] = make([]uint64, 1<<16)
		for r := range cols[i] {
			cols[i][r] = z.Uint64()
		}
	}
	st := CollectStats(cols, widths)
	st.N = 1 << 19
	return st
}

// TestRadixPrefersOneRoundOnZipfGroupBy: an 18-bit GROUP BY is one
// 32-bit round of two packed scatters under the radix kernel; splitting
// it {16/[16], 2/[16]} saves no scatter over all rows but pays a lookup,
// a scan and a sort per group. The paper kernel's term prices the split
// cheaper (internal/mergesort/paper's TestPaperPrefersSplitOnZipfGroupBy),
// which is the plan production ran before.
func TestRadixPrefersOneRoundOnZipfGroupBy(t *testing.T) {
	st := zipfStats()
	one := plan.Plan{Rounds: []plan.Round{{Width: 18, Bank: 32}}}
	split := plan.Plan{Rounds: []plan.Round{{Width: 16, Bank: 16}, {Width: 2, Bank: 16}}}
	m := Builtin()
	if !(m.TMCS(one, st) < m.TMCS(split, st)) {
		t.Errorf("radix term: one round %.4g, split %.4g; want one round cheaper", m.TMCS(one, st), m.TMCS(split, st))
	}
}

func TestDistinctCap(t *testing.T) {
	// Joint distinct estimates far beyond N must be capped, not overflow.
	st := Stats{N: 1000, Cols: []ColumnStats{
		{Width: 40, PrefixDistinct: geometric(40)},
		{Width: 40, PrefixDistinct: geometric(40)},
	}}
	d := st.distinctOfPrefix(80)
	if d > float64(st.N)*4+1 || d <= 0 {
		t.Errorf("distinctOfPrefix = %v, want capped near 4N", d)
	}
}

func geometric(w int) []float64 {
	pd := make([]float64, w+1)
	pd[0] = 1
	for t := 1; t <= w; t++ {
		pd[t] = pd[t-1] * 2
		if pd[t] > 1e12 {
			pd[t] = 1e12
		}
	}
	return pd
}

func TestMask(t *testing.T) {
	if column.Mask(64) != ^uint64(0) {
		t.Error("Mask(64)")
	}
}

func TestDupFrac(t *testing.T) {
	// 1600 rows over exactly 16 distinct 4-bit values: at full width
	// 1 - 16/1600 of the rows duplicate an earlier one; a zero-bit
	// prefix makes every row a duplicate of the first.
	codes := make([]uint64, 1600)
	for i := range codes {
		codes[i] = uint64(i % 16)
	}
	st := CollectStats([][]uint64{codes}, []int{4})
	dup := func(st Stats, bits int) float64 { return dupFrac(float64(st.N), st.distinctOfPrefix(bits)) }
	if got, want := dup(st, 4), 1-16.0/1600; got != want {
		t.Errorf("dup(4) = %v, want %v", got, want)
	}
	if got, want := dup(st, 0), 1-1.0/1600; got != want {
		t.Errorf("dup(0) = %v, want %v", got, want)
	}
	if dup(st, 2) <= dup(st, 4) {
		t.Errorf("narrower prefix must have more duplicates: dup(2)=%v dup(4)=%v", dup(st, 2), dup(st, 4))
	}
	// All-unique rows: no duplicates at full width.
	uniq := make([]uint64, 256)
	for i := range uniq {
		uniq[i] = uint64(i)
	}
	su := CollectStats([][]uint64{uniq}, []int{8})
	if got := dup(su, 8); got != 0 {
		t.Errorf("unique dup(8) = %v, want 0", got)
	}
}

// dupTerm returns a test-local SortTerm for the Model.Sort hook: below
// 24 rows the insertion regime, above it a per-row cost that grows with
// the bank and the key width and shrinks by disc·dup — so every argument
// the hook receives moves it.
func dupTerm(disc float64) SortTerm {
	return func(m *Model, n float64, bank, width int, dup float64) float64 {
		if n < 2 {
			return 0
		}
		if n < 24 {
			return m.TSmall(n)
		}
		return n * (float64(bank) + float64(width)/8) * (1 - disc*dup)
	}
}

// hooked returns Builtin with term plugged into Model.Sort.
func hooked(term SortTerm) *Model {
	m := Builtin()
	m.Sort = term
	return m
}

func TestTSortAfterDupAware(t *testing.T) {
	// 2^18 rows over 16 distinct 20-bit values: heavy duplication. The
	// Model.Sort hook receives the duplicate fraction of the round's
	// key, so a term that discounts duplicates must estimate the
	// dup-heavy sort cheaper than one that does not, and an
	// all-distinct column must be immune.
	m := hooked(dupTerm(0))
	md := hooked(dupTerm(0.9))
	heavy := uniformStats(1<<18, []int{20}, []int{16})
	if !(md.Profile(heavy).TSortAfter(0, 32) < m.Profile(heavy).TSortAfter(0, 32)) {
		t.Error("discounted model must price dup-heavy sorts cheaper")
	}
	// An all-unique column has duplicate fraction 0 — the discount must not move it.
	uniq := make([]uint64, 1<<18)
	for i := range uniq {
		uniq[i] = uint64(i)
	}
	light := CollectStats([][]uint64{uniq}, []int{20})
	lg, lw := md.Profile(light).TSortAfter(0, 32), m.Profile(light).TSortAfter(0, 32)
	if lg != lw {
		t.Errorf("unique column must be unaffected: %v vs %v", lg, lw)
	}
}
