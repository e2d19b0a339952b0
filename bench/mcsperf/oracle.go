package main

import (
	"fmt"
	"sort"

	"repro/internal/byteslice"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/table"
)

// output is the data a query returned, whichever path returned it.
type output struct {
	GroupKeys  [][]uint64
	Aggregates []uint64
	Ranks      []uint32
	RowOids    []uint32
	ColOrder   []int
}

func engineOutput(r *engine.Result) output {
	return output{GroupKeys: r.GroupKeys, Aggregates: r.Aggregates, Ranks: r.Ranks, RowOids: r.RowOids, ColOrder: r.ColOrder}
}

func serverOutput(r *server.QueryResult) output {
	return output{GroupKeys: r.GroupKeys, Aggregates: r.Aggregates, Ranks: r.Ranks, RowOids: r.RowOids, ColOrder: r.ColOrder}
}

// fnv64 is FNV-1a over 64-bit values taken as 8 little-endian bytes.
type fnv64 uint64

const (
	fnvOffset fnv64 = 14695981039346656037
	fnvPrime  fnv64 = 1099511628211
)

func (h *fnv64) add(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x = (x ^ fnv64(v&0xff)) * fnvPrime
		v >>= 8
	}
	*h = x
}

// checksum hashes a result's data: group keys row by row and then the
// aggregates, or the ranks and then the row oids.
func (o output) checksum() uint64 {
	h := fnvOffset
	for _, keys := range o.GroupKeys {
		for _, k := range keys {
			h.add(k)
		}
	}
	for _, a := range o.Aggregates {
		h.add(a)
	}
	return windowChecksum(h, o.Ranks, o.RowOids)
}

func windowChecksum(h fnv64, ranks, oids []uint32) uint64 {
	for _, r := range ranks {
		h.add(uint64(r))
	}
	for _, o := range oids {
		h.add(uint64(o))
	}
	return uint64(h)
}

// reference is the oracle's answer to a query under one column order.
type reference struct {
	sum uint64 // checksum of the full result
	// The full ranking of a window query, kept so that any page of it
	// can be checked.
	ranks, oids []uint32
}

// pageSum is the checksum of rows [lo, lo+n) of the ranking, clipped
// to its length like the engine clips an offset past the end.
func (r *reference) pageSum(lo, n int) uint64 {
	lo = min(lo, len(r.ranks))
	hi := min(lo+n, len(r.ranks))
	return windowChecksum(fnvOffset, r.ranks[lo:hi], r.oids[lo:hi])
}

// buildReference answers q the slow, obvious way: decode every column
// with BS.Lookup, filter row by row, stable-sort row ids by the sort
// columns in colOrder (so ties stay in ascending oid order, which is
// the engine's canonical tie order), then group and aggregate, or
// rank, in plain Go. It shares no sorting code with the engine.
func buildReference(t *table.Table, q engine.Query, colOrder []int) (*reference, error) {
	if q.OrderByAgg {
		return nil, fmt.Errorf("oracle: ORDER BY aggregate is not one of the benchmark's query shapes")
	}
	decode := func(name string) ([]uint64, error) {
		bs, err := t.ByteSlice(name)
		if err != nil {
			return nil, err
		}
		out := make([]uint64, t.N)
		for i := range out {
			out[i] = bs.Lookup(i)
		}
		return out, nil
	}

	sortCols := append([]engine.SortCol(nil), q.SortCols...)
	if q.Window != nil {
		sortCols = append(sortCols, engine.SortCol{Name: q.Window.OrderCol, Desc: q.Window.Desc})
	}
	if len(colOrder) != len(sortCols) {
		return nil, fmt.Errorf("oracle: column order %v for %d sort columns", colOrder, len(sortCols))
	}
	codes := make([][]uint64, len(sortCols))
	for c, sc := range sortCols {
		var err error
		if codes[c], err = decode(sc.Name); err != nil {
			return nil, err
		}
	}

	keep := make([]bool, t.N)
	for i := range keep {
		keep[i] = true
	}
	for _, f := range q.Filters {
		vals, err := decode(f.Col)
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			keep[i] = keep[i] && matches(f, v)
		}
	}
	var rows []uint32
	for i, k := range keep {
		if k {
			rows = append(rows, uint32(i))
		}
	}

	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, c := range colOrder {
			va, vb := codes[c][ra], codes[c][rb]
			if va != vb {
				return (va < vb) != sortCols[c].Desc
			}
		}
		return false
	})
	sameOn := func(a, b uint32, nCols int) bool {
		for c := 0; c < nCols; c++ {
			if codes[c][a] != codes[c][b] {
				return false
			}
		}
		return true
	}

	if q.Window != nil {
		// RANK() restarts per partition; rows tied on the order column
		// share a rank, and the rank counts rows, not distinct values.
		nPart := len(q.SortCols)
		order := codes[nPart]
		ref := &reference{ranks: make([]uint32, len(rows)), oids: rows}
		var rank, seen uint32
		for i, r := range rows {
			switch {
			case i == 0 || !sameOn(r, rows[i-1], nPart):
				rank, seen = 1, 1
			default:
				seen++
				if order[r] != order[rows[i-1]] {
					rank = seen
				}
			}
			ref.ranks[i] = rank
		}
		ref.sum = windowChecksum(fnvOffset, ref.ranks, ref.oids)
		return ref, nil
	}

	var aggVals []uint64
	if q.Agg != nil && q.Agg.Kind != engine.Count {
		var err error
		if aggVals, err = decode(q.Agg.Col); err != nil {
			return nil, err
		}
	}
	var out output
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && sameOn(rows[lo], rows[hi], len(sortCols)) {
			hi++
		}
		keys := make([]uint64, len(sortCols))
		for c := range keys {
			keys[c] = codes[c][rows[lo]]
		}
		acc := uint64(hi - lo)
		if aggVals != nil {
			acc = 0
			for _, r := range rows[lo:hi] {
				acc += aggVals[r]
			}
			if q.Agg.Kind == engine.Avg {
				acc /= uint64(hi - lo)
			}
		}
		out.GroupKeys = append(out.GroupKeys, keys)
		out.Aggregates = append(out.Aggregates, acc)
		lo = hi
	}
	return &reference{sum: out.checksum()}, nil
}

func matches(f engine.Filter, v uint64) bool {
	if f.Between {
		return f.Lo <= v && v <= f.Hi
	}
	switch f.Op {
	case byteslice.EQ:
		return v == f.Const
	case byteslice.NEQ:
		return v != f.Const
	case byteslice.LT:
		return v < f.Const
	case byteslice.LE:
		return v <= f.Const
	case byteslice.GT:
		return v > f.Const
	default: // byteslice.GE
		return v >= f.Const
	}
}
