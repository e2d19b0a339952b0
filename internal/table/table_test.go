package table

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/testutil"
)

func mustAdd(t *testing.T, tbl *Table, c *column.Column) {
	t.Helper()
	if err := tbl.Add(c); err != nil {
		t.Fatal(err)
	}
}

// randCodes returns n random w-bit codes drawn from distinct values.
func randCodes(rng *rand.Rand, n, w, distinct int) []uint64 {
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = uint64(rng.Intn(distinct)) & column.Mask(w)
	}
	return codes
}

// TestAdd: a column is validated and kept as a copy in its ByteSlice
// layout, so changing the caller's codes afterwards changes nothing.
func TestAdd(t *testing.T) {
	tbl := New("t", 4)
	c := column.FromCodes("a", 3, []uint64{1, 2, 3, 4})
	mustAdd(t, tbl, c)
	c.Codes[0] = 7
	got, err := testutil.Column(tbl.ByteSlice("a"))
	if err != nil || got.Width != 3 || !reflect.DeepEqual(got.Codes, []uint64{1, 2, 3, 4}) {
		t.Fatalf("column a = %+v, %v", got, err)
	}
	if _, err := tbl.ByteSlice("missing"); err == nil {
		t.Error("missing column accepted")
	}
	if err := tbl.Add(c); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tbl.Add(column.FromCodes("b", 3, []uint64{1})); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := tbl.Add(column.FromCodes("b", 3, []uint64{1, 2, 8, 4})); err == nil {
		t.Error("code wider than its column accepted")
	}
}

// TestAddCodes: AddCodes encodes a column straight from its code
// function; it refuses an out-of-range width, a duplicate name and a
// code one bit too wide with Add's error text, and a refused column
// leaves the table as it was.
func TestAddCodes(t *testing.T) {
	tbl := New("t", 4)
	if err := tbl.AddCodes("a", 3, func(row int) uint64 { return uint64(row) + 4 }); err != nil {
		t.Fatal(err)
	}
	got, err := testutil.Column(tbl.ByteSlice("a"))
	if err != nil || got.Width != 3 || !reflect.DeepEqual(got.Codes, []uint64{4, 5, 6, 7}) {
		t.Fatalf("column a = %+v, %v", got, err)
	}
	cols, bytes := tbl.Columns(), tbl.Bytes()
	stats, _ := tbl.Stats("a")
	fits := func(int) uint64 { return 1 }
	for _, c := range []struct {
		name  string
		width int
		code  func(int) uint64
		want  string
	}{
		{"b", 0, fits, `table t: column "b": width 0 out of range`},
		{"b", 65, fits, `table t: column "b": width 65 out of range`},
		{"a", 3, fits, `table t: duplicate column a`},
		{"b", 5, func(row int) uint64 { return uint64(row/3) << 5 }, `table t: column "b": code 32 at row 3 exceeds 5 bits`},
	} {
		err := tbl.AddCodes(c.name, c.width, c.code)
		if err == nil || err.Error() != c.want {
			t.Errorf("AddCodes(%q, %d) = %v, want %q", c.name, c.width, err, c.want)
		}
		codes := make([]uint64, tbl.N)
		for i := range codes {
			codes[i] = c.code(i)
		}
		if err := tbl.Add(column.FromCodes(c.name, c.width, codes)); err == nil || err.Error() != c.want {
			t.Errorf("Add(%q, %d) = %v, want %q", c.name, c.width, err, c.want)
		}
		st, _ := tbl.Stats("a")
		if !reflect.DeepEqual(tbl.Columns(), cols) || tbl.Bytes() != bytes || !reflect.DeepEqual(st, stats) {
			t.Errorf("refused column %q changed the table: columns %v, %d bytes", c.name, tbl.Columns(), tbl.Bytes())
		}
		if _, err := tbl.Stats("b"); err == nil && c.name == "b" {
			t.Errorf("refused column %q has a statistics profile", c.name)
		}
	}
}

func TestByteSliceCached(t *testing.T) {
	tbl := New("t", 3)
	mustAdd(t, tbl, column.FromCodes("a", 9, []uint64{100, 200, 300}))
	bs1, err := tbl.ByteSlice("a")
	if err != nil {
		t.Fatal(err)
	}
	bs2, _ := tbl.ByteSlice("a")
	if bs1 != bs2 {
		t.Error("ByteSlice not cached")
	}
	for i, want := range []uint64{100, 200, 300} {
		if bs1.Lookup(i) != want {
			t.Errorf("row %d: %d", i, bs1.Lookup(i))
		}
	}
	if got := tbl.Bytes(); got != 2*8 {
		t.Errorf("Bytes = %d, want two planes of 8 padded rows", got)
	}
}

func TestStatsCachedAndCorrect(t *testing.T) {
	tbl := New("t", 8)
	mustAdd(t, tbl, column.FromCodes("a", 3, []uint64{0, 1, 2, 3, 4, 5, 6, 7}))
	st1, err := tbl.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st1.PrefixDistinct[3] != 8 {
		t.Errorf("full-width distinct = %v, want 8", st1.PrefixDistinct[3])
	}
	st2, _ := tbl.Stats("a")
	if &st1.PrefixDistinct[0] != &st2.PrefixDistinct[0] {
		t.Error("stats not cached")
	}
	if _, err := tbl.Stats("missing"); err == nil {
		t.Error("missing column accepted")
	}
}

// TestStatsSample: a column's profile is that of its first
// costmodel.StatsSample codes, and a table cut from another's planes
// profiles its own first rows.
func TestStatsSample(t *testing.T) {
	const n, w = costmodel.StatsSample + 5000, 21
	codes := randCodes(rand.New(rand.NewSource(3)), n, w, 1<<w)
	tbl := New("t", n)
	mustAdd(t, tbl, column.FromCodes("a", w, codes))
	got, err := tbl.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if want := costmodel.CollectColumnStats(codes[:costmodel.StatsSample], w); !reflect.DeepEqual(got, want) {
		t.Errorf("Stats = %v, want %v", got, want)
	}

	for _, r := range [][2]int{{3000, n}, {n - 100, n}, {7, 7}} {
		got, _ := tbl.Slice(r[0], r[1]).Stats("a")
		sample := codes[r[0]:min(r[1], r[0]+costmodel.StatsSample)]
		if want := costmodel.CollectColumnStats(sample, w); !reflect.DeepEqual(got, want) {
			t.Errorf("rows %v: Stats = %v, want %v", r, got, want)
		}
	}
}

// TestHeapHoldsOnlyPlanes: once built, a table costs its ByteSlice
// planes and statistics on the heap, not the code arrays it was built
// from. Not parallel: it reads the process's live heap. Each read
// follows two collections, which empty the sync.Pool that holds the
// statistics sampler's buffer (costmodel.SampleColumnStats, shared by
// every table, no table's): the test measures the table whether or not
// an earlier test built one, and under -race too, where the pool drops
// a quarter of its Puts at random.
func TestHeapHoldsOnlyPlanes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := wideTable(t)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	limit := 1.25 * float64(tbl.Bytes())
	for _, name := range tbl.Columns() {
		st, _ := tbl.Stats(name)
		limit += float64(8 * len(st.PrefixDistinct))
	}
	if grew := float64(after.HeapAlloc) - float64(before.HeapAlloc); grew > limit {
		t.Errorf("live heap grew %.0f B for a table of %d plane bytes, want at most %.0f", grew, tbl.Bytes(), limit)
	}
	runtime.KeepAlive(tbl)
}

// wideTable builds 8 columns of 2^16 rows; their code arrays are
// garbage once it returns.
func wideTable(t *testing.T) *Table {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(4))
	tbl := New("wide", n)
	for i, w := range []int{5, 9, 13, 17, 21, 25, 29, 33} {
		mustAdd(t, tbl, column.FromCodes(string(rune('a'+i)), w, randCodes(rng, n, w, 1<<min(w, 30))))
	}
	return tbl
}

func TestColumnsListing(t *testing.T) {
	tbl := New("t", 1)
	mustAdd(t, tbl, column.FromCodes("x", 1, []uint64{0}))
	mustAdd(t, tbl, column.FromCodes("y", 1, []uint64{1}))
	names := tbl.Columns()
	if len(names) != 2 {
		t.Fatalf("Columns = %v", names)
	}
}
