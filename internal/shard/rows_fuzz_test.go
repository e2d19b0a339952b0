package shard

// FuzzShardRows fuzzes the window shape of the coordinator's trust
// boundary: the run build (gather.buildRun) over a shard's answer — row
// oids in the shard's sort order, with no ranks — and the merge and rank
// behind it.
// Each input decodes to a window clause (ascending and descending
// columns whose key and index fit one word, take 62, 63 or 64 bits, or
// far more), a table of seeded codes cut into
// 1–4 shard ranges (empty ones included), an optional LIMIT pre-cut
// with its window, and each range's canonical answer, one of which a
// mutation may then damage. The builder must reject exactly the
// answers a naive reference rejects; when every answer is accepted, the
// gathered (ranks, global oids) must equal a naive stable sort of the
// answered rows by (massaged key, global oid) followed by RANK, in
// every key form the clause fits and at workers 1 and 2, and a
// canonical answer cut at a LIMIT must be the window of the uncut
// table's ranking.

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/chaos"
	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/server"
)

// rowsSpec derives a window clause over an n-row table from the shape
// word: 2 or 3 clause columns — partition columns, then the ORDER BY
// column, which every pin keeps last — each ascending or descending,
// 1–4 bits wide (packed and tie-heavy) or, with the top bit set, 28–43
// bits (more than 64 in all for three columns: the code-vector path).
// With bit 11 set the widths are instead stretched so that key and
// index take 62, 63 or 64 bits (bits 12–13): the boundary between the
// last packed word and the first code vector.
func rowsSpec(shape uint16, n int) mergeSpec {
	m := int(shape)%2 + 2
	sp := mergeSpec{order: make([]int, m), widths: make([]int, m), desc: make([]bool, m)}
	for c := 0; c < m; c++ {
		sp.order[c] = c
		sp.desc[c] = shape>>(1+uint(c))&1 == 1
		sp.widths[c] = 1 + int(shape>>(4+2*uint(c)))%4
		if shape>>15 == 1 {
			sp.widths[c] = 28 + 5*(sp.widths[c]-1)
		}
	}
	if m == 3 && shape>>10&1 == 1 {
		sp.order[0], sp.order[1] = 1, 0
	}
	if shape>>11&1 == 1 {
		return boundarySpec(sp, n, 62+int(shape>>12&3)%3)
	}
	return sp.forRows(n)
}

// naiveRows is the reference for one window gather: the rows the
// shards answered, by global oid, stably sorted by (massaged key,
// global oid), ranked with RANK() over the massaged partition columns
// and the ORDER BY column last, and cut to the output window.
func naiveRows(sp mergeSpec, code func(gid uint32) []uint64, gids []uint32, limit *int, offset int) (ranks, oids []uint32) {
	oids = slices.Clone(gids)
	sort.SliceStable(oids, func(x, y int) bool {
		if c := slices.Compare(massagedVec(sp, code(oids[x])), massagedVec(sp, code(oids[y]))); c != 0 {
			return c < 0
		}
		return oids[x] < oids[y]
	})
	m := len(sp.order)
	ranks = make([]uint32, len(oids))
	var prev []uint64
	first := 0 // the current partition's first row
	for i, gid := range oids {
		cur := massagedVec(sp, code(gid))
		switch {
		case i == 0 || !slices.Equal(prev[:m-1], cur[:m-1]):
			first, ranks[i] = i, 1
		case prev[m-1] == cur[m-1]:
			ranks[i] = ranks[i-1]
		default:
			ranks[i] = uint32(i - first + 1) // rank counts rows, not values
		}
		prev = cur
	}
	lo, hi := engine.OutputWindow(len(oids), limit, offset)
	return ranks[lo:hi], oids[lo:hi]
}

// naiveRunValid is the reference verdict on one shard's answer: a row
// count inside the range, exactly min(Rows, cut) oids and no ranks,
// every oid inside the range, and each row after its predecessor in
// (massaged key, oid) order.
func naiveRunValid(sp mergeSpec, code func(gid uint32) []uint64, rng Range, cut int, a *server.QueryResult) bool {
	want := a.Rows
	if cut > 0 && cut < want {
		want = cut
	}
	if a.Rows < 0 || a.Rows > rng.Len() || len(a.RowOids) != want || len(a.Ranks) != 0 {
		return false
	}
	for i, oid := range a.RowOids {
		if int(oid) >= rng.Len() {
			return false
		}
		if i > 0 {
			prev, cur := a.RowOids[i-1], oid
			c := slices.Compare(massagedVec(sp, code(uint32(rng.Lo)+prev)), massagedVec(sp, code(uint32(rng.Lo)+cur)))
			if c > 0 || c == 0 && prev >= cur {
				return false
			}
		}
	}
	return true
}

// gatherRows builds every answer into a run and merges them, as the
// coordinator does; it returns the first build error.
func gatherRows(ctx context.Context, g *gather, answers []*server.QueryResult, limit *int, offset, workers int) ([]uint32, []uint32, error) {
	runs := make([]*run, len(answers))
	for si, a := range answers {
		var err error
		if runs[si], err = g.buildRun(ctx, si, a); err != nil {
			return nil, nil, err
		}
	}
	return mergeWindowRuns(ctx, runs, g, limit, offset, workers)
}

func FuzzShardRows(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0x0013), []byte{9, 17, 3, 4, 2, 0, 0})
	f.Add(uint16(0x8427), []byte{5, 20, 2, 0, 1, 0, 0})
	f.Add(uint16(0x0406), []byte{7, 12, 4, 7, 3, 2, 1, 4})
	f.Add(uint16(0x8001), []byte{3, 23, 3, 0, 0, 5, 0, 1})
	f.Add(uint16(0x0155), []byte{1, 2, 4, 1, 0, 6, 3, 0})
	f.Add(uint16(0x0817), []byte{11, 19, 2, 0, 9, 0, 0})   // 62 bits
	f.Add(uint16(0x1806), []byte{4, 23, 3, 5, 0, 2, 0})    // 63 bits
	f.Add(uint16(0x2c13), []byte{6, 21, 3, 0, 14, 0, 0})   // 64 bits
	f.Add(uint16(0x0406), []byte{7, 12, 2, 3, 0, 8, 1, 0}) // ranks sent

	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rnd := chaos.NewRand(uint64(next()))
		n := next() % 24
		sp := rowsSpec(shape, n)
		m := len(sp.order)

		// Seeded codes with tiny domains (mostly ties), set in the top bits
		// of wide columns so the high words of a key vector collide too.
		codes := make([][]uint64, m)
		cols := make([]*byteslice.BS, m)
		for c := range codes {
			w := sp.widths[c]
			codes[c] = make([]uint64, n)
			for i := range codes[c] {
				v := rnd.Uint64()
				codes[c][i] = v%2<<uint(w-1) | v>>8%2
			}
			cols[c] = byteslice.FromColumn(column.FromCodes("c", w, codes[c]))
		}
		code := func(gid uint32) []uint64 {
			vec := make([]uint64, m)
			for c := range vec {
				vec[c] = codes[c][gid]
			}
			return vec
		}

		// The window: unlimited (with an offset), or a LIMIT whose
		// offset+limit is the sub-queries' pre-cut.
		ranges := Ranges(n, next()%4+1)
		var limit *int
		offset, cut := next()%(n+2), 0
		if b := next(); b%3 != 0 {
			cut = b%(n+2) + 1
			offset %= cut
			l := cut - offset
			limit = &l
		}

		// Each range's canonical answer: its local oids stably sorted by
		// massaged key, cut at the pre-cut; then maybe one mutation.
		canon := func(cut int) []*server.QueryResult {
			answers := make([]*server.QueryResult, len(ranges))
			for si, rng := range ranges {
				oids := make([]uint32, rng.Len())
				for i := range oids {
					oids[i] = uint32(i)
				}
				sort.SliceStable(oids, func(x, y int) bool {
					return slices.Compare(massagedVec(sp, code(uint32(rng.Lo)+oids[x])), massagedVec(sp, code(uint32(rng.Lo)+oids[y]))) < 0
				})
				if cut > 0 && cut < len(oids) {
					oids = oids[:cut]
				}
				answers[si] = &server.QueryResult{Rows: rng.Len(), RowOids: oids}
			}
			return answers
		}
		answers := canon(cut)
		op, ti, at := next()%9, next()%len(answers), next()
		a, k := answers[ti], len(answers[ti].RowOids)
		switch {
		case op == 1 && k > 0: // an oid outside the range
			a.RowOids[at%k] = uint32(ranges[ti].Len() + at)
		case op == 2 && k > 1: // two neighbours swapped
			i := at%(k-1) + 1
			a.RowOids[i-1], a.RowOids[i] = a.RowOids[i], a.RowOids[i-1]
		case op == 3 && k > 1: // a row repeated: an equal key, a non-ascending oid
			i := at%(k-1) + 1
			a.RowOids[i] = a.RowOids[i-1]
		case op == 4 && k > 0: // the last row dropped: a short run
			a.RowOids = a.RowOids[:k-1]
		case op == 5: // an inflated row count
			a.Rows += at%2 + 1
		case op == 6 && k > 0: // the last row dropped and counted out: a filtered shard, valid unless the pre-cut ended the run
			a.RowOids, a.Rows = a.RowOids[:k-1], a.Rows-1
		case op == 7: // arbitrary oids of the right length
			for i := range a.RowOids {
				a.RowOids[i] = uint32(next() % (ranges[ti].Len() + 2))
			}
		case op == 8 && k > 0: // ranks sent beside the oids: a shard that ignored oids_only
			a.Ranks = make([]uint32, k)
		}

		ctx := context.Background()
		valid := true
		for si, ans := range answers {
			want := naiveRunValid(sp, code, ranges[si], cut, ans)
			_, err := (&gather{sp: sp, ranges: ranges, cols: cols, cut: cut}).buildRun(ctx, si, ans)
			if (err == nil) != want {
				t.Fatalf("shard %d (op %d): builder says %v, the reference says valid=%v", si, op, err, want)
			}
			if err != nil && !errors.Is(err, errShardInvalid) {
				t.Fatalf("shard %d: rejected with a non-taxonomy error: %v", si, err)
			}
			valid = valid && want
		}
		if !valid {
			return
		}

		var gids []uint32
		for si, ans := range answers {
			for _, oid := range ans.RowOids {
				gids = append(gids, uint32(ranges[si].Lo)+oid)
			}
		}
		wantRanks, wantOids := naiveRows(sp, code, gids, limit, offset)
		forms := bothForms(sp, n)
		if sp.wide {
			delete(forms, "packed")
		}
		for form, fsp := range forms {
			g := &gather{sp: fsp, ranges: ranges, cols: cols, cut: cut}
			for _, workers := range []int{1, 2} {
				ranks, oids, err := gatherRows(ctx, g, answers, limit, offset, workers)
				if err != nil {
					t.Fatalf("%s keys: %v", form, err)
				}
				if !slices.Equal(oids, wantOids) || !slices.Equal(ranks, wantRanks) {
					t.Fatalf("%s keys, workers %d (op %d, cut %d): gathered\n  oids %v ranks %v\nreference\n  oids %v ranks %v", form, workers, op, cut, oids, ranks, wantOids, wantRanks)
				}
			}
			if op != 0 || cut == 0 {
				continue
			}
			// A canonical pre-cut loses nothing: the gathered window is the
			// same window of the uncut table's gather.
			ranks, oids, err := gatherRows(ctx, g, answers, limit, offset, 2)
			if err != nil {
				t.Fatal(err)
			}
			g.cut = 0
			fullRanks, fullOids, err := gatherRows(ctx, g, canon(0), nil, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := engine.OutputWindow(len(fullOids), limit, offset)
			if !reflect.DeepEqual(oids, fullOids[lo:hi]) || !reflect.DeepEqual(ranks, fullRanks[lo:hi]) {
				t.Fatalf("%s keys: the LIMIT %d OFFSET %d gather is not rows [%d,%d) of the full one", form, *limit, offset, lo, hi)
			}
		}
	})
}
