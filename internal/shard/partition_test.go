package shard

import (
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/table"
	"repro/internal/testutil"
)

// TestRangesPartition checks the partitioning law every other property
// of the topology rests on: contiguous, covering, sizes within one row
// of each other, and exactly the i·n/N formula both the coordinator and
// `mcsd -shard-index` compute independently.
func TestRangesPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1501} {
		for _, shards := range []int{1, 2, 3, 4, 7} {
			rs := Ranges(n, shards)
			if len(rs) != shards {
				t.Fatalf("Ranges(%d,%d): %d ranges", n, shards, len(rs))
			}
			if rs[0].Lo != 0 || rs[len(rs)-1].Hi != n {
				t.Fatalf("Ranges(%d,%d) does not cover [0,%d): %v", n, shards, n, rs)
			}
			minLen, maxLen := n+1, -1
			for i, r := range rs {
				if r.Lo != i*n/shards || r.Hi != (i+1)*n/shards {
					t.Errorf("Ranges(%d,%d)[%d] = %v, want [%d,%d)", n, shards, i, r, i*n/shards, (i+1)*n/shards)
				}
				if i > 0 && r.Lo != rs[i-1].Hi {
					t.Errorf("Ranges(%d,%d): gap between range %d and %d", n, shards, i-1, i)
				}
				if r.Len() < minLen {
					minLen = r.Len()
				}
				if r.Len() > maxLen {
					maxLen = r.Len()
				}
			}
			if maxLen-minLen > 1 {
				t.Errorf("Ranges(%d,%d): sizes spread %d..%d", n, shards, minLen, maxLen)
			}
		}
	}
}

func TestRangesClampsShardCount(t *testing.T) {
	for _, bad := range []int{0, -3} {
		rs := Ranges(10, bad)
		if len(rs) != 1 || rs[0] != (Range{Lo: 0, Hi: 10}) {
			t.Errorf("Ranges(10,%d) = %v, want one full range", bad, rs)
		}
	}
}

// TestSliceRoundTrip: a slice carries the owning range's codes verbatim
// (read back through its ByteSlice) and keeps the FULL table's column
// width even when the sliced values would fit narrower — the merge keys
// depend on every shard agreeing on widths.
func TestSliceRoundTrip(t *testing.T) {
	const n = 11
	codes := []uint64{63, 58, 41, 7, 1, 0, 2, 3, 60, 59, 33}
	tbl := table.New("t", n)
	if err := tbl.Add(column.FromCodes("x", 6, codes)); err != nil {
		t.Fatal(err)
	}

	r := Range{Lo: 3, Hi: 8} // values 7..3: all fit in 3 bits
	st, err := Slice(tbl, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "t" || st.N != r.Len() {
		t.Fatalf("slice is %q/%d rows, want %q/%d", st.Name, st.N, "t", r.Len())
	}
	c, err := testutil.Column(st.ByteSlice("x"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != 6 {
		t.Errorf("sliced width %d, want the full table's 6", c.Width)
	}
	for i, v := range c.Codes {
		if v != codes[r.Lo+i] {
			t.Errorf("slice row %d = %d, want %d", i, v, codes[r.Lo+i])
		}
	}
}

func TestSliceRejectsBadRange(t *testing.T) {
	tbl := table.New("t", 5)
	if err := tbl.Add(column.FromCodes("x", 4, []uint64{1, 2, 3, 4, 5})); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Range{{Lo: -1, Hi: 3}, {Lo: 0, Hi: 6}, {Lo: 4, Hi: 3}} {
		if _, err := Slice(tbl, r); err == nil || !strings.Contains(err.Error(), "outside table") {
			t.Errorf("Slice(%v): err = %v, want range error", r, err)
		}
	}
}
