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

// bothForms returns the spec sized for an n-row table in each key form:
// the one its widths select (a packed word for every narrow spec in
// these tests) and one forced onto the code-vector path.
func bothForms(sp mergeSpec, n int) map[string]mergeSpec {
	sp = sp.forRows(n)
	wide := sp
	wide.wide = true
	return map[string]mergeSpec{"packed": sp, "wide": wide}
}

// groupGather is the gather of group runs built from parts: each part
// answers for a range of one row per group, the ranges consecutive.
func groupGather(parts []groupsPart, sp mergeSpec) *gather {
	g := &gather{sp: sp, ranges: make([]Range, len(parts))}
	lo := 0
	for si, p := range parts {
		g.ranges[si] = Range{Lo: lo, Hi: lo + len(p.keys)}
		lo += len(p.keys)
	}
	return g
}

// groupRows is the table a set of parts answers for: one row per group.
func groupRows(parts []groupsPart) int {
	n := 0
	for _, p := range parts {
		n += len(p.keys)
	}
	return n
}

// groupRuns builds each part the way the coordinator's fan-out does:
// the count sub-query's run from the keys and agg and, when the part
// carries an aux vector, the sum sub-query's run from the keys and aux,
// attached to it, all of them filtered in.
func groupRuns(ctx context.Context, g *gather, parts []groupsPart) ([]*run, error) {
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

// mergeGroups is the coordinator's group gather over decoded parts,
// under sp sized for their table: build every run, then merge and
// combine.
func mergeGroups(ctx context.Context, parts []groupsPart, sp mergeSpec, workers int) (*groupsPart, error) {
	forced := sp.wide
	sp = sp.forRows(groupRows(parts))
	sp.wide = sp.wide || forced // a spec forced onto the code-vector path stays there
	g := groupGather(parts, sp)
	runs, err := groupRuns(ctx, g, parts)
	if err != nil {
		return nil, err
	}
	return mergeGroupRuns(ctx, runs, g, workers)
}

// mergedIndexes merges runs, cut at limit, and returns the global index
// every merged key ends in: a window row's oid, a group's range base
// plus its number.
func mergedIndexes(ctx context.Context, runs []*run, sp mergeSpec, limit, workers int) ([]uint32, error) {
	keys, err := mergeRuns(ctx, runs, sp, limit, workers)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(keys)/sp.stride())
	for i := range out {
		out[i] = uint32(sp.index(keys, i))
	}
	return out, nil
}

// validateGroups runs one shard's group table through the run builder
// in both key forms, which must agree on the verdict.
func validateGroups(t *testing.T, p groupsPart, sp mergeSpec) error {
	t.Helper()
	parts := []groupsPart{p}
	forms := bothForms(sp, len(p.keys))
	_, err := groupRuns(context.Background(), groupGather(parts, forms["packed"]), parts)
	if _, werr := groupRuns(context.Background(), groupGather(parts, forms["wide"]), parts); (err == nil) != (werr == nil) {
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

// TestMergeWideMatchesPacked: the code-vector merge and the packed
// word merge implement the same order. Specs around the boundary — key
// and index W + idxBits ∈ {62, 63, 64} bits — run in every form they
// fit (packed up to 63 bits, which the spec selects there; the code
// vector always), with two values per column in its top and bottom bit
// so ties cross runs, and each must equal the naive stable sort by
// (massaged key, global oid), with and without a limit cut, at workers
// 1 and 2.
func TestMergeWideMatchesPacked(t *testing.T) {
	const runs, runLen = 3, 40 // 120 rows: a 7-bit index
	ctx := context.Background()
	for _, total := range []int{62, 63, 64} {
		key := total - 7
		sp := mergeSpec{order: []int{2, 0, 1}, widths: []int{key - 30, 17, 13}, desc: []bool{false, true, false}}
		rng := chaos.NewRand(uint64(total))
		vecs := make([][][]uint64, runs)
		for r := range vecs {
			vecs[r] = make([][]uint64, runLen)
			for i := range vecs[r] {
				vec := make([]uint64, len(sp.widths))
				for c, w := range sp.widths {
					v := rng.Uint64()
					vec[c] = v%2<<uint(w-1) | v>>8%2
				}
				vecs[r][i] = vec
			}
		}
		cols, ranges, answers := windowAnswers(sp, vecs)
		code := func(gid uint32) []uint64 { return vecs[gid/runLen][gid%runLen] }
		gids := make([]uint32, runs*runLen)
		for i := range gids {
			gids[i] = uint32(i)
		}
		forms := bothForms(sp, len(gids))
		if forms["packed"].wide != (total > 63) {
			t.Errorf("W+idxBits=%d: the spec selects wide = %v", total, forms["packed"].wide)
		}
		for form, fsp := range forms {
			g := &gather{sp: fsp, ranges: ranges, cols: cols}
			built := make([]*run, len(answers))
			for si, a := range answers {
				var err error
				if built[si], err = g.buildRun(ctx, si, a); err != nil {
					t.Fatalf("W+idxBits=%d %s keys: sorted run %d rejected: %v", total, form, si, err)
				}
			}
			for _, limit := range []int{0, 17} {
				var lim *int
				if limit > 0 {
					lim = &limit
				}
				_, want := naiveRows(fsp, code, gids, lim, 0)
				for _, workers := range []int{1, 2} {
					got, err := mergedIndexes(ctx, built, fsp, limit, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("W+idxBits=%d %s keys limit=%d workers=%d: merged %v, reference %v", total, form, limit, workers, got, want)
					}
				}
			}
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
		answers = append(answers, &server.QueryResult{Rows: len(run), RowOids: oids})
	}
	cols := make([]*byteslice.BS, len(codes))
	for c := range codes {
		cols[c] = byteslice.FromColumn(column.FromCodes(fmt.Sprint("c", c), sp.widths[c], codes[c]))
	}
	return cols, ranges, answers
}

// TestBuildRunRefusesRanks: a window answer is oids only. The run build
// accepts a shard's sorted oids and refuses the same answer with ranks
// beside them, in both key forms and under a LIMIT pre-cut: a shard
// that sends ranks ignored the sub-query's oids_only and is confused.
func TestBuildRunRefusesRanks(t *testing.T) {
	ctx := context.Background()
	sp := mergeSpec{order: []int{1, 0}, widths: []int{3, 5}, desc: []bool{true, false}}
	vecs := make([][][]uint64, 2)
	rng := chaos.NewRand(3)
	for r := range vecs {
		for i := 0; i < 20; i++ {
			vecs[r] = append(vecs[r], []uint64{rng.Uint64() % 8, rng.Uint64() % 32})
		}
	}
	cols, ranges, answers := windowAnswers(sp, vecs)
	for form, fsp := range bothForms(sp, 40) {
		for _, cut := range []int{0, 7} {
			g := &gather{sp: fsp, ranges: ranges, cols: cols, cut: cut}
			for si, a := range answers {
				oids := a.RowOids
				if cut > 0 {
					oids = oids[:cut]
				}
				bare := &server.QueryResult{Rows: a.Rows, RowOids: oids}
				if _, err := g.buildRun(ctx, si, bare); err != nil {
					t.Fatalf("%s keys, cut %d: shard %d's oids rejected: %v", form, cut, si, err)
				}
				ranked := &server.QueryResult{Rows: a.Rows, RowOids: oids, Ranks: make([]uint32, len(oids))}
				if _, err := g.buildRun(ctx, si, ranked); !errors.Is(err, errShardInvalid) {
					t.Errorf("%s keys, cut %d: shard %d's answer with ranks: err %v, want errShardInvalid", form, cut, si, err)
				}
			}
		}
	}
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
	const nRuns, runLen = 4, 33
	rng := chaos.NewRand(7)
	sp := mergeSpec{order: []int{0}, widths: []int{3}, desc: []bool{false}}.forRows(nRuns * runLen)
	var runs []*run
	for r := 0; r < nRuns; r++ {
		keys := make([]uint64, runLen)
		for i := range keys {
			keys[i] = rng.Uint64() % 5
		}
		slices.Sort(keys)
		for i := range keys {
			keys[i] = keys[i]<<uint(sp.idxBits) | uint64(r*runLen+i)
		}
		runs = append(runs, &run{keys: keys})
	}
	ctx := context.Background()
	merge := func(limit int) []uint32 {
		out, err := mergedIndexes(ctx, runs, sp, limit, 2)
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
				t.Fatalf("limit=%d: element %d is entry %d, full merge has %d", limit, i, cut[i], full[i])
			}
		}
	}
}

// TestRankSortedCancel pins invariant 4 of docs/robustness.md on the
// coordinator's window rank pass (unpackWindow), which is one step per
// merged row: a context cancelled before the call, or one that is
// cancelled mid-pass, yields context.Canceled and no result — and the
// pass stops at the first poll that sees the cancellation instead of
// ranking every row.
func TestRankSortedCancel(t *testing.T) {
	const n = 5 * mergeCtxStride
	// Partitions of 7 rows, every row its own order value.
	sp := mergeSpec{order: []int{0, 1}, widths: []int{12, 15}, desc: []bool{false, false}}.forRows(n)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = (uint64(i/7)<<15|uint64(i))<<uint(sp.idxBits) | uint64(i)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	mid := testutil.NewPollCtx(2)
	for name, ctx := range map[string]context.Context{"pre-cancelled": cancelled, "mid-pass": mid} {
		ranks, oids, err := unpackWindow(ctx, keys, sp)
		if !errors.Is(err, context.Canceled) || ranks != nil || oids != nil {
			t.Fatalf("%s: got (%d ranks, %d oids, %v), want context.Canceled and no result", name, len(ranks), len(oids), err)
		}
	}
	if left := mid.Left(); left != -1 {
		t.Errorf("mid-pass: %d polls left, want -1: the pass polled on past the cancellation", left)
	}

	// Uncancelled, the same input ranks 1..7 within each partition of 7.
	ranks, oids, err := unpackWindow(context.Background(), keys, sp)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if r != uint32(i%7)+1 || oids[i] != uint32(i) {
			t.Fatalf("row %d: (rank %d, oid %d), want (%d, %d)", i, r, oids[i], i%7+1, i)
		}
	}
}

// rankByLookup is the per-row reference for a window's ranks: it reads
// every clause column's code of each merged row by oid from the full
// table — the partition columns, then the ORDER BY column — and ranks
// the rows in the given order.
func rankByLookup(cols []*byteslice.BS, oids []uint32) []uint32 {
	m := len(cols)
	ranks := make([]uint32, len(oids))
	var prev []uint64
	first := 0 // the current partition's first row
	for i, oid := range oids {
		cur := make([]uint64, m)
		for c, bs := range cols {
			cur[c] = bs.Lookup(int(oid))
		}
		switch {
		case i == 0 || !slices.Equal(prev[:m-1], cur[:m-1]):
			first, ranks[i] = i, 1
		case prev[m-1] == cur[m-1]:
			ranks[i] = ranks[i-1]
		default:
			ranks[i] = uint32(i - first + 1)
		}
		prev = cur
	}
	return ranks
}

// TestRankFromKeysMatchesLookup: the window gather ranks from the keys
// the merge already holds; the definition it must agree with is a
// per-row reference (rankByLookup) reading every sort column's code by
// global oid from the full table, over the reference order — every
// oid stably sorted by massaged key. Swept over ascending and descending
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
		// The reference order: every oid, stably sorted by massaged key.
		order := make([]uint32, tbl.N)
		for i := range order {
			order[i] = uint32(i)
		}
		sort.SliceStable(order, func(x, y int) bool {
			return slices.Compare(massagedVec(sp, codes(int(order[x]))), massagedVec(sp, codes(int(order[y])))) < 0
		})
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
					part := &server.QueryResult{Rows: ranges[si].Len(), RowOids: run}
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
			if !slices.Equal(oids, order) {
				t.Errorf("%s: the merged oids are not the stable sort by massaged key", label)
			}
			want := rankByLookup(b.Cols, oids)
			if !reflect.DeepEqual(ranks, want) {
				t.Errorf("%s: ranks from the merged keys differ from ranking the codes read by oid", label)
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

// gatherComposeKeys is the packed window key build the run builder
// replaced, kept as its reference: every pinned column's codes
// gathered at the global indexes into one buffer, then complemented
// when descending and shifted into the key that ends in the index.
func gatherComposeKeys(g *gather, gids []uint32) []uint64 {
	sp := g.sp
	keys, codes := make([]uint64, len(gids)), make([]uint64, len(gids))
	for i, gid := range gids {
		keys[i] = uint64(gid)
	}
	for pos, c := range sp.order {
		g.cols[c].Gather(codes, gids)
		flip := uint64(0)
		if sp.desc[c] {
			flip = column.Mask(sp.widths[c])
		}
		for i, v := range codes {
			keys[i] |= (v ^ flip) << sp.drop[pos+1]
		}
	}
	return keys
}

// TestPackedWindowKeysMatchGather: a packed window run's keys, ORed
// from the table's planes, equal the gather-and-compose build's, for
// ascending and descending columns of one to four planes (widths 3, 8,
// 9, 17, 21 and 32) under clause and permuted pins, with one shard
// filtered down to part of its range. The table spans more than one
// mergeCtxStride block, so every block's keys are compared.
func TestPackedWindowKeysMatchGather(t *testing.T) {
	const n = 3*mergeCtxStride + 123
	ctx := context.Background()
	type clause struct {
		widths []int
		order  []int
	}
	var clauses []clause
	for _, w := range []int{3, 8, 9, 17, 21, 32} {
		clauses = append(clauses, clause{[]int{w, 3}, []int{0, 1}}, clause{[]int{9, w}, []int{1, 0}})
	}
	clauses = append(clauses, clause{[]int{21, 17, 9}, []int{2, 0, 1}}, clause{[]int{32, 8, 3}, []int{1, 2, 0}})
	rng := chaos.NewRand(62)
	for _, cl := range clauses {
		for descs := 0; descs < 1<<len(cl.widths); descs++ {
			sp := mergeSpec{order: cl.order, widths: cl.widths, desc: make([]bool, len(cl.widths))}
			for c := range sp.desc {
				sp.desc[c] = descs>>c&1 == 1
			}
			sp = sp.forRows(n)
			if sp.wide {
				t.Fatalf("widths %v: key and index take %d bits, want a packed word", cl.widths, sp.drop[0])
			}
			codes := make([][]uint64, len(cl.widths))
			cols := make([]*byteslice.BS, len(cl.widths))
			for c, w := range cl.widths {
				codes[c] = make([]uint64, n)
				for i := range codes[c] {
					codes[c][i] = rng.Uint64() & column.Mask(w)
				}
				cols[c] = byteslice.FromColumn(column.FromCodes(fmt.Sprint("c", c), w, codes[c]))
			}
			vecs := make([][]uint64, n) // massaged, per global index
			for gid := range vecs {
				v := make([]uint64, len(codes))
				for c := range codes {
					v[c] = codes[c][gid]
				}
				vecs[gid] = massagedVec(sp, v)
			}
			ranges := Ranges(n, 3)
			g := &gather{sp: sp, ranges: ranges, cols: cols}
			for si, r := range ranges {
				var oids []uint32
				for oid := 0; oid < r.Len(); oid++ {
					if si != 1 || rng.Uint64()%3 != 0 { // shard 1 is filtered
						oids = append(oids, uint32(oid))
					}
				}
				sort.SliceStable(oids, func(x, y int) bool {
					return slices.Compare(vecs[r.Lo+int(oids[x])], vecs[r.Lo+int(oids[y])]) < 0
				})
				built, err := g.buildRun(ctx, si, &server.QueryResult{Rows: len(oids), RowOids: oids})
				if err != nil {
					t.Fatalf("widths %v desc %v: shard %d's sorted oids rejected: %v", cl.widths, sp.desc, si, err)
				}
				gids := make([]uint32, len(oids))
				for i, oid := range oids {
					gids[i] = uint32(r.Lo) + oid
				}
				want := gatherComposeKeys(g, gids)
				if len(built.keys) != len(want) {
					t.Fatalf("widths %v desc %v: shard %d's run has %d keys, want %d", cl.widths, sp.desc, si, len(built.keys), len(want))
				}
				if !slices.Equal(built.keys, want) {
					i := 0
					for built.keys[i] == want[i] {
						i++
					}
					t.Fatalf("widths %v order %v desc %v shard %d: entry %d keyed %#x, gather-and-compose %#x", cl.widths, cl.order, sp.desc, si, i, built.keys[i], want[i])
				}
			}
		}
	}
}
