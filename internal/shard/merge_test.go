package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/chaos"
	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testutil"
)

// bothForms returns the spec in each key form: the packed one the
// width selects (every spec in these tests fits 64 bits) and one forced
// onto the wide, code-vector path.
func bothForms(sp mergeSpec) map[string]mergeSpec {
	wide := sp
	wide.wide = true
	return map[string]mergeSpec{"packed": sp, "wide": wide}
}

// groupRuns builds each part the way the coordinator's fan-out does:
// the count sub-query's run from the keys and agg and, when the part
// carries an aux vector, the sum sub-query's run from the keys and aux,
// attached to it. Each part answers for a range of one row per group,
// all of them filtered in.
func groupRuns(ctx context.Context, parts []groupsPart, sp mergeSpec) ([]*run, error) {
	g := &gather{sp: sp, ranges: make([]Range, len(parts))}
	for si, p := range parts {
		g.ranges[si] = Range{Hi: len(p.keys)}
	}
	runs := make([]*run, len(parts))
	for si, p := range parts {
		rows := len(p.keys)
		r, err := g.buildRun(ctx, si, &server.QueryResult{Rows: rows, GroupKeys: p.keys, Aggregates: p.agg})
		if err != nil {
			return nil, err
		}
		if p.aux != nil {
			sums, err := g.buildRun(ctx, si, &server.QueryResult{Rows: rows, GroupKeys: p.keys, Aggregates: p.aux})
			if err != nil {
				return nil, err
			}
			if err := attachAux(r, sums, si); err != nil {
				return nil, err
			}
		}
		runs[si] = r
	}
	return runs, nil
}

// mergeGroups is the coordinator's group gather over decoded parts:
// build every run, then merge and combine.
func mergeGroups(ctx context.Context, parts []groupsPart, sp mergeSpec, workers int) (*groupsPart, error) {
	runs, err := groupRuns(ctx, parts, sp)
	if err != nil {
		return nil, err
	}
	return mergeGroupRuns(ctx, runs, sp, workers)
}

// mergedPayload merges runs, cut at limit, and returns the merged
// payload: a window run's oids, a group run's flat entry index.
func mergedPayload(ctx context.Context, runs []*run, sp mergeSpec, limit int) ([]uint32, error) {
	flat := 0
	for _, r := range runs {
		if r.pay == nil {
			r.pay = make([]uint32, len(r.part.keys))
			for j := range r.pay {
				r.pay[j] = uint32(flat + j)
			}
		}
		flat += len(r.pay)
	}
	_, out, err := mergeRuns(ctx, runs, sp, limit, 2)
	return out, err
}

// validateGroups runs one shard's group table through the run builder
// in both key forms, which must agree on the verdict.
func validateGroups(t *testing.T, p groupsPart, sp mergeSpec) error {
	t.Helper()
	forms := bothForms(sp)
	_, err := groupRuns(context.Background(), []groupsPart{p}, forms["packed"])
	if _, werr := groupRuns(context.Background(), []groupsPart{p}, forms["wide"]); (err == nil) != (werr == nil) {
		t.Errorf("packed keys say %v, wide keys say %v", err, werr)
	}
	return err
}

// TestValidateGroupsRejects: every way a confused or truncated shard
// response can be structurally wrong must fail with errShardInvalid
// before its values reach the merge.
func TestValidateGroupsRejects(t *testing.T) {
	sp := mergeSpec{order: []int{0, 1}, widths: []int{4, 4}, desc: []bool{false, false}}
	cases := []struct {
		name string
		p    groupsPart
		ok   bool
	}{
		{name: "valid", ok: true,
			p: groupsPart{keys: [][]uint64{{1, 2}, {2, 1}}, agg: []uint64{3, 4}}},
		{name: "valid_empty", ok: true, p: groupsPart{}},
		{name: "agg_length_mismatch",
			p: groupsPart{keys: [][]uint64{{1, 2}}, agg: []uint64{3, 4}}},
		{name: "aux_length_mismatch",
			p: groupsPart{keys: [][]uint64{{1, 2}}, agg: []uint64{3}, aux: []uint64{5, 6}}},
		{name: "wrong_key_arity",
			p: groupsPart{keys: [][]uint64{{1, 2, 3}}, agg: []uint64{3}}},
		{name: "code_exceeds_width",
			p: groupsPart{keys: [][]uint64{{1, 16}}, agg: []uint64{3}}},
		{name: "descending_keys",
			p: groupsPart{keys: [][]uint64{{2, 0}, {1, 0}}, agg: []uint64{3, 4}}},
		{name: "duplicate_adjacent_keys",
			p: groupsPart{keys: [][]uint64{{1, 2}, {1, 2}}, agg: []uint64{3, 4}}},
	}
	for _, tc := range cases {
		err := validateGroups(t, tc.p, sp)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, errShardInvalid) {
			t.Errorf("%s: err = %v, want errShardInvalid", tc.name, err)
		}
	}
}

// TestValidateGroupsDescOrder: the order check runs over MASSAGED keys,
// so a descending sort column must arrive in descending raw order.
func TestValidateGroupsDescOrder(t *testing.T) {
	sp := mergeSpec{order: []int{0, 1}, widths: []int{4, 4}, desc: []bool{true, false}}
	ok := groupsPart{keys: [][]uint64{{2, 0}, {1, 0}}, agg: []uint64{1, 1}}
	if err := validateGroups(t, ok, sp); err != nil {
		t.Errorf("descending raw order on a desc column rejected: %v", err)
	}
	bad := groupsPart{keys: [][]uint64{{1, 0}, {2, 0}}, agg: []uint64{1, 1}}
	if err := validateGroups(t, bad, sp); !errors.Is(err, errShardInvalid) {
		t.Errorf("ascending raw order on a desc column accepted: %v", err)
	}
}

// TestMergeGroupsCombines: equal keys across shards collapse into one
// group with summed primary and auxiliary aggregates, in global sort
// order.
func TestMergeGroupsCombines(t *testing.T) {
	sp := mergeSpec{order: []int{0, 1}, widths: []int{4, 4}, desc: []bool{false, false}}
	parts := []groupsPart{
		{keys: [][]uint64{{1, 1}, {2, 2}}, agg: []uint64{2, 3}, aux: []uint64{10, 20}},
		{keys: [][]uint64{{1, 1}, {3, 3}}, agg: []uint64{5, 7}, aux: []uint64{30, 40}},
	}
	m, err := mergeGroups(context.Background(), parts, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := [][]uint64{{1, 1}, {2, 2}, {3, 3}}
	wantAgg := []uint64{7, 3, 7}
	wantAux := []uint64{40, 20, 40}
	if len(m.keys) != len(wantKeys) {
		t.Fatalf("merged %d groups, want %d", len(m.keys), len(wantKeys))
	}
	for g := range wantKeys {
		if !slices.Equal(m.keys[g], wantKeys[g]) || m.agg[g] != wantAgg[g] || m.aux[g] != wantAux[g] {
			t.Errorf("group %d = (%v, %d, %d), want (%v, %d, %d)",
				g, m.keys[g], m.agg[g], m.aux[g], wantKeys[g], wantAgg[g], wantAux[g])
		}
	}
}

func TestMergeGroupsRejectsPartialAux(t *testing.T) {
	sp := mergeSpec{order: []int{0}, widths: []int{4}, desc: []bool{false}}
	parts := []groupsPart{
		{keys: [][]uint64{{1}}, agg: []uint64{2}, aux: []uint64{10}},
		{keys: [][]uint64{{2}}, agg: []uint64{3}},
	}
	if _, err := mergeGroups(context.Background(), parts, sp, 1); !errors.Is(err, errShardInvalid) {
		t.Errorf("aux on one shard only: err = %v, want errShardInvalid", err)
	}
}

// TestMergeWideMatchesPacked: the wide lexicographic fallback and the
// packed-64 parallel path implement the same (key, run) order — run a
// spec whose total width fits both, with heavy duplication so ties
// cross runs, and require identical merged output, with and without a
// limit cut.
func TestMergeWideMatchesPacked(t *testing.T) {
	sp := mergeSpec{order: []int{2, 0, 1}, widths: []int{9, 7, 5}, desc: []bool{false, true, false}}
	rng := chaos.NewRand(42)
	const runLen = 40
	var runs [][][]uint64
	for r := 0; r < 3; r++ {
		run := make([][]uint64, runLen)
		for i := range run {
			// Domain 3 per column: most keys collide across runs.
			run[i] = []uint64{rng.Uint64() % 3, rng.Uint64() % 3, rng.Uint64() % 3}
		}
		runs = append(runs, run)
	}
	cols, ranges, answers := windowAnswers(sp, runs)

	ctx := context.Background()
	for _, limit := range []int{0, 17} {
		merged := make(map[string][]uint32)
		for form, fsp := range bothForms(sp) {
			g := &gather{sp: fsp, ranges: ranges, cols: cols}
			built := make([]*run, len(answers))
			for si, a := range answers {
				var err error
				if built[si], err = g.buildRun(ctx, si, a); err != nil {
					t.Fatalf("%s keys: sorted run %d rejected: %v", form, si, err)
				}
			}
			var err error
			if merged[form], err = mergedPayload(ctx, built, fsp, limit); err != nil {
				t.Fatal(err)
			}
		}
		packed, wide := merged["packed"], merged["wide"]
		if len(packed) != len(wide) {
			t.Fatalf("limit=%d: packed %d elements, wide %d", limit, len(packed), len(wide))
		}
		for i := range packed {
			if packed[i] != wide[i] {
				t.Fatalf("limit=%d: order diverges at %d: packed %d, wide %d", limit, i, packed[i], wide[i])
			}
		}
		if limit > 0 && len(packed) != limit {
			t.Errorf("limit=%d: got %d elements", limit, len(packed))
		}
	}
}

// windowAnswers lays runs of clause-order vectors out as the rows of
// consecutive shard ranges of one table and answers each range the way
// a shard does: its local oids stably sorted by massaged key, every row
// of the range returned.
func windowAnswers(sp mergeSpec, runs [][][]uint64) ([]*byteslice.BS, []Range, []*server.QueryResult) {
	var ranges []Range
	var answers []*server.QueryResult
	codes := make([][]uint64, len(sp.widths))
	for _, run := range runs {
		rng := Range{Lo: len(codes[0]), Hi: len(codes[0]) + len(run)}
		oids := make([]uint32, len(run))
		for i, vec := range run {
			for c, v := range vec {
				codes[c] = append(codes[c], v)
			}
			oids[i] = uint32(i)
		}
		sort.SliceStable(oids, func(x, y int) bool {
			return slices.Compare(massagedVec(sp, run[oids[x]]), massagedVec(sp, run[oids[y]])) < 0
		})
		ranges = append(ranges, rng)
		answers = append(answers, &server.QueryResult{Rows: len(run), RowOids: oids, Ranks: make([]uint32, len(run))})
	}
	cols := make([]*byteslice.BS, len(codes))
	for c := range codes {
		cols[c] = byteslice.FromColumn(column.FromCodes(fmt.Sprint("c", c), sp.widths[c], codes[c]))
	}
	return cols, ranges, answers
}

// massagedVec is the naive reference for a clause-order vector's sort
// key: codes masked to their widths, descending columns complemented,
// permuted into the pinned order.
func massagedVec(sp mergeSpec, vec []uint64) []uint64 {
	out := make([]uint64, len(sp.order))
	for i, c := range sp.order {
		out[i] = vec[c] & column.Mask(sp.widths[c])
		if sp.desc[c] {
			out[i] = column.Complement(out[i], sp.widths[c])
		}
	}
	return out
}

// TestMergeRows64LimitIsPrefix: the merge cut at a limit must equal the
// full merge's prefix — that equality is what lets the coordinator merge
// per-shard pre-cut windows.
func TestMergeRows64LimitIsPrefix(t *testing.T) {
	rng := chaos.NewRand(7)
	var runs []*run
	for r := 0; r < 4; r++ {
		keys, pay := make([]uint64, 33), make([]uint32, 33)
		for i := range keys {
			keys[i], pay[i] = rng.Uint64()%5, uint32(r*len(keys)+i)
		}
		slices.Sort(keys)
		runs = append(runs, &run{keys: keys, pay: pay})
	}
	ctx := context.Background()
	merge := func(limit int) []uint32 {
		_, out, err := mergeRuns(ctx, runs, mergeSpec{}, limit, 2)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := merge(0)
	for _, limit := range []int{1, 9, 50, len(full), len(full) + 10} {
		cut := merge(limit)
		if wantLen := min(limit, len(full)); len(cut) != wantLen {
			t.Fatalf("limit=%d: got %d elements, want %d", limit, len(cut), wantLen)
		}
		for i := range cut {
			if cut[i] != full[i] {
				t.Fatalf("limit=%d: element %d is flat %d, full merge has %d", limit, i, cut[i], full[i])
			}
		}
	}
}

// TestRankSortedCancel pins invariant 4 of docs/robustness.md on the
// coordinator's window RANK pass, which is one step per merged row: a
// context cancelled before the call, or one that is cancelled mid-pass,
// yields context.Canceled and no ranks — and the pass stops within one
// poll stride of the cancellation instead of ranking every row.
func TestRankSortedCancel(t *testing.T) {
	const n = 5 * mergeCtxStride
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx      context.Context
		maxReads int
	}{
		"pre-cancelled": {cancelled, 0},
		"mid-pass":      {testutil.NewPollCtx(2), 2 * mergeCtxStride},
	} {
		reads := 0
		ranks, err := rankSorted(tc.ctx, n, 2, func(i int, dst []uint64) {
			reads++
			dst[0], dst[1] = uint64(i)/7, uint64(i)
		})
		if !errors.Is(err, context.Canceled) || ranks != nil {
			t.Fatalf("%s: got (%d ranks, %v), want context.Canceled and no result", name, len(ranks), err)
		}
		if reads != tc.maxReads {
			t.Errorf("%s: ranked %d rows before stopping, want %d", name, reads, tc.maxReads)
		}
	}

	// Uncancelled, the same input ranks 1..7 within each partition of 7.
	ranks, err := rankSorted(context.Background(), n, 2, func(i int, dst []uint64) {
		dst[0], dst[1] = uint64(i)/7, uint64(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if r != uint32(i%7)+1 {
			t.Fatalf("row %d: rank %d, want %d", i, r, i%7+1)
		}
	}
}

// TestRankFromKeysMatchesLookup: the window gather ranks from the keys
// the merge already holds; the definition it must agree with is
// rankSorted reading every sort column's code by global oid — how the
// gather ranked before. Swept over ascending and descending
// ORDER BY columns, a permuted pin, the tie-heavy table, a clause wider
// than 64 bits, each key form, shard counts, and LIMIT/OFFSET cuts
// (whose ranks are a slice of the full ranking).
func TestRankFromKeysMatchesLookup(t *testing.T) {
	tables := batteryTables(t)
	win := func(orderCol string, desc bool, part ...string) server.QueryRequest {
		req := server.QueryRequest{Kind: "partitionby", Window: &server.WindowReq{OrderCol: orderCol, Desc: desc}}
		for _, name := range part {
			req.SortCols = append(req.SortCols, server.SortColReq{Name: name})
		}
		return req
	}
	cases := []struct {
		tbl int
		req server.QueryRequest
		pin []int
	}{
		{0, win("c", false, "a", "b"), []int{0, 1, 2}},
		{0, win("c", true, "a", "b"), []int{1, 0, 2}},
		{1, win("c", true, "a", "b"), []int{1, 0, 2}}, // ~99% ties
		{1, win("v", false, "c"), []int{0, 1}},
		{2, win("w5", false, "w1", "w2", "w3", "w4"), []int{2, 0, 3, 1, 4}}, // 80 bits
		{2, win("w5", true, "w1", "w2", "w3", "w4"), []int{0, 1, 2, 3, 4}},
	}
	cuts := []batteryCell{{label: "limit7", limit: intp(7)}, {label: "limit13off5", limit: intp(13), offset: 5},
		{label: "off11", offset: 11}, {label: "limit5000", limit: intp(5000)}}
	ctx := context.Background()
	for _, tc := range cases {
		tbl := tables[tc.tbl]
		tc.req.Table = tbl.Name
		tc.req.SortCols[0].Desc = true // a descending partition column too
		q, err := tc.req.ToEngineQuery()
		if err != nil {
			t.Fatal(err)
		}
		b, err := engine.Bind(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		sp := newMergeSpec(b, tc.pin)
		codes := func(oid int) []uint64 {
			vals := make([]uint64, len(b.Cols))
			for c, bs := range b.Cols {
				vals[c] = bs.Lookup(oid)
			}
			return vals
		}
		for _, nShards := range []int{1, 3} {
			// Each shard's run: its local oids, stably sorted by massaged key.
			ranges := Ranges(tbl.N, nShards)
			runs := make([][]uint32, nShards)
			for si, rng := range ranges {
				vecs := make([][]uint64, rng.Len())
				runs[si] = make([]uint32, rng.Len())
				for i := range vecs {
					vecs[i], runs[si][i] = massagedVec(sp, codes(rng.Lo+i)), uint32(i)
				}
				sort.SliceStable(runs[si], func(x, y int) bool {
					return slices.Compare(vecs[runs[si][x]], vecs[runs[si][y]]) < 0
				})
			}
			gatherCell := func(cell batteryCell) (ranks, oids []uint32) {
				req := tc.req
				req.Limit, req.Offset = cell.limit, cell.offset
				g := &gather{sp: sp, ranges: ranges, cols: b.Cols}
				g.cut, _ = engine.SortCut(q, req.Limit, req.Offset)
				built := make([]*run, nShards)
				for si, run := range runs {
					if g.cut > 0 && g.cut < len(run) {
						run = run[:g.cut] // the sub-queries' pre-cut
					}
					var err error
					part := &server.QueryResult{Rows: ranges[si].Len(), RowOids: run, Ranks: make([]uint32, len(run))}
					if built[si], err = g.buildRun(ctx, si, part); err != nil {
						t.Fatalf("%s %v: %v", tbl.Name, tc.pin, err)
					}
				}
				ranks, oids, err := mergeWindowRuns(ctx, built, g, req.Limit, req.Offset, 2)
				if err != nil {
					t.Fatalf("%s %v: %v", tbl.Name, tc.pin, err)
				}
				return ranks, oids
			}

			label := fmt.Sprintf("%s order=%s desc=%v pin=%v shards=%d", tbl.Name, tc.req.Window.OrderCol, tc.req.Window.Desc, tc.pin, nShards)
			ranks, oids := gatherCell(batteryCell{label: "full"})
			want, err := rankSorted(ctx, len(oids), len(b.Cols), func(i int, dst []uint64) {
				copy(dst, codes(int(oids[i])))
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(oids) != tbl.N || !reflect.DeepEqual(ranks, want) {
				t.Errorf("%s: ranks from the merged keys differ from rankSorted reading the codes by oid", label)
			}
			if sp.wide != (tc.tbl == 2) {
				t.Errorf("%s: wide key form = %v", label, sp.wide)
			}
			for _, cell := range cuts {
				lo, hi := engine.OutputWindow(tbl.N, cell.limit, cell.offset)
				gotRanks, gotOids := gatherCell(cell)
				if !reflect.DeepEqual(gotRanks, want[lo:hi]) || !reflect.DeepEqual(gotOids, oids[lo:hi]) {
					t.Errorf("%s %s: cut gather is not rows [%d,%d) of the full ranking", label, cell.label, lo, hi)
				}
			}
		}
	}
}
