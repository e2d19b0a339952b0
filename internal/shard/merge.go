// Cross-shard merging. Shards return results sorted in the pinned
// column order (a window answer is its sorted oids, with no ranks); the
// coordinator turns each shard's answer into a run —
// validated and keyed on the fan-out goroutine that received it, while
// slower shards are still sorting — and merges the runs in place. Every
// key ends in its entry's global index, so the keys are distinct, a
// plain ascending merge is the run-index-stable one, and no payload
// travels with them: mergesort.MergeRunsContext merges packed words (cut
// at exactly the sub-queries' pre-cut under a LIMIT), mergeWide code
// vectors. The gathered output is the single-node output, byte for
// byte.
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/server"
)

var (
	obsRunBuild = obs.NewTimer("shard.run_build")
	obsMerge    = obs.NewTimer("shard.merge")
)

// errShardInvalid classifies a structurally broken shard response —
// mismatched lengths, out-of-range oids, keys out of sort order. Not
// retryable: the same shard would return the same bytes again.
var errShardInvalid = errors.New("shard: invalid shard response")

// mergeCtxStride is how many rows the gather's sequential loops run
// between context polls.
const mergeCtxStride = 1 << 12

// mergeSpec says how to turn a clause-order key vector into the sort
// key the shards sorted by — permute by order (the pinned ColOrder),
// complement descending columns, concatenate widths, the earlier sort
// column in the higher bits, exactly like the engine's massage — and
// how the merge key ends in the entry's global index: one packed word
// key<<idxBits | index when the W key bits and the index fit 63 bits,
// otherwise a code vector of the m massaged codes and the index.
type mergeSpec struct {
	order   []int            // pinned ColOrder: position i sorts clause column order[i]
	widths  []int            // bit width per clause position
	desc    []bool           // descending flag per clause position
	idxBits int              // bits of a global index: bits.Len(n−1) for an n-row table
	wide    bool             // keys are code vectors, not packed words
	drop    []uint           // packed words: the low bits after the first p sort positions, p = 0…m+1
	bits    []byteslice.Bits // packed words: sort position p's whole code, complemented when descending, at shift drop[p+1]
}

// newMergeSpec is the spec of a bound query under the pinned order.
func newMergeSpec(b *engine.Bound, pin []int) mergeSpec {
	sp := mergeSpec{order: pin, widths: make([]int, len(b.Sort)), desc: make([]bool, len(b.Sort))}
	for i, sc := range b.Sort {
		sp.widths[i], sp.desc[i] = b.Cols[i].Width, sc.Desc
	}
	return sp.forRows(b.Table.N)
}

// forRows sizes the index for a table of n rows and picks the key form.
func (sp mergeSpec) forRows(n int) mergeSpec {
	sp.idxBits = bits.Len(uint(max(n, 1) - 1))
	m := len(sp.order)
	sp.drop = make([]uint, m+2) // drop[m+1] = 0: the whole word
	sp.drop[m] = uint(sp.idxBits)
	for p := m - 1; p >= 0; p-- {
		sp.drop[p] = sp.drop[p+1] + uint(sp.widths[sp.order[p]])
	}
	sp.wide = sp.drop[0] > 63
	if !sp.wide {
		sp.bits = make([]byteslice.Bits, m)
		for p, c := range sp.order {
			sp.bits[p] = byteslice.NewBits(0, sp.widths[c], sp.drop[p+1], sp.desc[c])
		}
	}
	return sp
}

// stride is how many words one entry's merge key takes.
func (sp *mergeSpec) stride() int {
	if sp.wide {
		return len(sp.order) + 1
	}
	return 1
}

// compare orders entries i and j of keys (in sp's form) by their first
// p sort positions; p = m+1 compares the whole key, index included.
func (sp *mergeSpec) compare(keys []uint64, i, j, p int) int {
	if sp.wide {
		st := sp.stride()
		return slices.Compare(keys[i*st:i*st+p], keys[j*st:j*st+p])
	}
	return cmp.Compare(keys[i]>>sp.drop[p], keys[j]>>sp.drop[p])
}

// index is the global index entry i of keys ends in.
func (sp *mergeSpec) index(keys []uint64, i int) int {
	if sp.wide {
		return int(keys[(i+1)*sp.stride()-1])
	}
	return int(keys[i] & column.Mask(sp.idxBits))
}

// run is one shard's sub-query answer as the merge consumes it: the
// merge key of every entry, in the shard's order (entry i at
// keys[i·stride:(i+1)·stride]). A window run keeps nothing else of the
// decoded result but its row count; a group run keeps the shard's
// group table, read through the index its keys end in.
type run struct {
	rows int        // the shard's filtered row count
	keys []uint64   // merge keys
	part groupsPart // group runs
}

// gather is what every run build of one query shares.
type gather struct {
	sp        mergeSpec
	ranges    []Range         // the shards' ranges, in shard order
	cols      []*byteslice.BS // window queries: the full table's clause columns; nil for group shapes
	cut       int             // window queries: the sub-queries' LIMIT pre-cut, 0 when unlimited
	countOnly bool            // LIMIT 0: the fan-out only collects filtered row counts
}

// buildRun is the one place a shard's answer becomes a merge run. It
// checks the answer against the query shape and rebuilds its merge
// keys from codes the coordinator trusts — a window run's from its own
// full table at the global oid, a group table's from its key vectors. A
// window answer is oids only (the sub-queries set oids_only): shards
// ship neither keys, since deriving them here is the stronger check, nor
// ranks, which unpackWindow computes from the merged keys; an answer
// that carries ranks comes from a confused shard. One loop over
// mergeCtxStride-row blocks range-checks the oids into global indexes
// (a group's is its range base plus its number), builds each pinned
// column into the keys and requires the order the merge relies on:
// window keys strictly ascending with their index (ties oid-ascending),
// group keys without it (groups are distinct keys). A packed window
// run ORs each column's bits into its keys straight from the table's
// planes (byteslice.BS.OrBits, the massage's kernel); a wide window run
// gathers the codes into one buffer, and a group run copies them
// there from the shard's key vectors, either then composed into the
// keys with one OR-accumulated width check. Anything a confused or
// truncated shard could get wrong fails with errShardInvalid before the
// merge.
func (g *gather) buildRun(ctx context.Context, si int, res *server.QueryResult) (*run, error) {
	faultinject.Fire(faultinject.ShardMerge)
	defer obsRunBuild.Start().End()
	rng := g.ranges[si]
	if res.Rows < 0 || res.Rows > rng.Len() {
		return nil, fmt.Errorf("%w: shard %d reports %d rows for its %d-row range", errShardInvalid, si, res.Rows, rng.Len())
	}
	r := &run{rows: res.Rows}
	if g.countOnly {
		return r, nil
	}
	sp, m := g.sp, len(g.sp.order)
	n, ordered := res.Rows, m+1 // entries, and the sort positions the order check reads
	if g.cols != nil {
		if g.cut > 0 && g.cut < n {
			n = g.cut
		}
		if len(res.RowOids) != n || len(res.Ranks) != 0 {
			return nil, fmt.Errorf("%w: shard %d sent %d oids and %d ranks for %d rows, want %d oids and no ranks", errShardInvalid, si, len(res.RowOids), len(res.Ranks), res.Rows, n)
		}
	} else {
		n, ordered = len(res.GroupKeys), m
		if len(res.Aggregates) != n {
			return nil, fmt.Errorf("%w: shard %d sent %d group keys, %d aggregates", errShardInvalid, si, n, len(res.Aggregates))
		}
		if n > res.Rows {
			return nil, fmt.Errorf("%w: shard %d sent %d groups for %d rows", errShardInvalid, si, n, res.Rows)
		}
		r.part = groupsPart{keys: res.GroupKeys, agg: res.Aggregates}
	}

	// A packed window key ORs each pinned column's whole code in at its
	// shift (sp.bits), and needs no codes buffer. Its codes come from
	// the coordinator's own w-bit ByteSlice, so each is below 2^w: the
	// width check a buffer gets could not fail. It stays where codes
	// come from a shard (group tables) and on the wide path, which
	// gathers.
	orBits := g.cols != nil && !sp.wide
	var codes []uint64
	if !orBits {
		codes = make([]uint64, mergeCtxStride)
	}
	st := sp.stride()
	r.keys = make([]uint64, n*st)
	gids := make([]uint32, mergeCtxStride)
	for lo := 0; lo < n; lo += mergeCtxStride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+mergeCtxStride, n)
		keys, gids := r.keys[lo*st:hi*st], gids[:hi-lo]
		for i := range gids {
			if g.cols == nil {
				if len(res.GroupKeys[lo+i]) != m {
					return nil, fmt.Errorf("%w: shard %d group %d has %d key columns, want %d", errShardInvalid, si, lo+i, len(res.GroupKeys[lo+i]), m)
				}
				gids[i] = uint32(rng.Lo + lo + i)
			} else if oid := res.RowOids[lo+i]; int(oid) < rng.Len() {
				gids[i] = uint32(rng.Lo) + oid
			} else {
				return nil, fmt.Errorf("%w: shard %d row oid %d outside its %d-row range", errShardInvalid, si, oid, rng.Len())
			}
			keys[i*st+st-1] = uint64(gids[i])
		}
		for pos, c := range sp.order {
			if orBits {
				g.cols[c].OrBits(keys, gids, 0, &sp.bits[pos])
				continue
			}
			codes := codes[:hi-lo]
			if g.cols != nil {
				g.cols[c].Gather(codes, gids)
			} else {
				for i, vec := range res.GroupKeys[lo:hi] {
					codes[i] = vec[c]
				}
			}
			mask, flip, or := column.Mask(sp.widths[c]), uint64(0), uint64(0)
			if sp.desc[c] {
				flip = mask
			}
			if shift := sp.drop[pos+1]; sp.wide {
				for i, v := range codes {
					or |= v
					keys[i*st+pos] = v ^ flip
				}
			} else {
				for i, v := range codes {
					or |= v
					keys[i] |= (v ^ flip) << shift
				}
			}
			if or&^mask != 0 {
				i := slices.IndexFunc(codes, func(v uint64) bool { return v&^mask != 0 })
				return nil, fmt.Errorf("%w: shard %d entry %d key column %d value %d exceeds width %d", errShardInvalid, si, lo+i, c, codes[i], sp.widths[c])
			}
		}
		for i, shift := max(lo, 1), sp.drop[ordered]; i < hi; i++ {
			if sp.wide && sp.compare(r.keys, i-1, i, ordered) >= 0 || !sp.wide && r.keys[i-1]>>shift >= r.keys[i]>>shift {
				return nil, fmt.Errorf("%w: shard %d entry %d out of sort order", errShardInvalid, si, i)
			}
		}
	}
	return r, nil
}

// mergeRuns merges the runs' keys, cut at exactly limit entries when
// limit > 0. Runs are in range order and their keys end in ascending
// global indexes, so the ascending order is the run-index-stable one:
// for a window, the ascending-global-oid canonical order.
func mergeRuns(ctx context.Context, runs []*run, sp mergeSpec, limit, workers int) ([]uint64, error) {
	keys := make([][]uint64, len(runs))
	for i, r := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		keys[i] = r.keys
	}
	if sp.wide {
		return mergeWide(ctx, keys, sp, limit)
	}
	return mergesort.MergeRunsContext(ctx, keys, limit, workers)
}

// mergeWide is the merge of code vectors, for keys that do not fit one
// word: a sequential k-way merge reading the runs in place, with
// MergeRunsContext's limit cut. The vectors are distinct, so no tie
// rule is needed. Wide clauses are rare and the entry count is
// per-shard-truncated already.
func mergeWide(ctx context.Context, runs [][]uint64, sp mergeSpec, limit int) ([]uint64, error) {
	st, n := sp.stride(), 0
	for _, r := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n += len(r) / st
	}
	if limit > 0 && limit < n {
		n = limit
	}
	heads := make([]int, len(runs))
	out := make([]uint64, n*st)
	for d := 0; d < len(out); d += st {
		if d&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		best, head := 0, []uint64(nil)
		for r, h := range heads {
			if v := runs[r][h:min(h+st, len(runs[r]))]; len(v) > 0 && (head == nil || vecLess(v, head)) {
				best, head = r, v
			}
		}
		for i, x := range head {
			out[d+i] = x
		}
		heads[best] += st
	}
	return out, nil
}

// vecLess reports whether code vector a precedes b (b may run on).
func vecLess(a, b []uint64) bool {
	for i, x := range a {
		if x != b[i] {
			return x < b[i]
		}
	}
	return false
}

// unpackWindow turns a merged window's keys into the answer's row oids
// — the index each key ends in — and RANK() OVER (PARTITION BY … ORDER
// BY …), from group boundaries. The pinned order keeps the ORDER BY
// column last, so a new group starts where the m sort positions change,
// a new partition where the first m−1 do, and a row's rank is its
// group's start minus its partition's start plus one (rank counts rows,
// not values); neither the descending complement nor the partition
// columns' permutation changes which keys are equal. Ranks only look
// backward, so ranking a prefix of the merged rows is exact. The pass
// polls ctx every mergeCtxStride rows.
func unpackWindow(ctx context.Context, keys []uint64, sp mergeSpec) (ranks, oids []uint32, err error) {
	m, idx := len(sp.order), column.Mask(sp.idxBits)
	groupShift, partShift := sp.drop[m], sp.drop[m-1]
	n := len(keys) / sp.stride()
	ranks, oids = make([]uint32, n), make([]uint32, n)
	group, part := 0, 0 // the current group's and partition's first row
	for lo := 0; lo < n; lo += mergeCtxStride {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for i := lo; i < min(lo+mergeCtxStride, n); i++ {
			oid := keys[i] & idx
			if sp.wide {
				cur, c := keys[i*(m+1):(i+1)*(m+1)], 0 // c: the first sort position the row differs in
				for ; i > 0 && c < m && cur[c] == keys[(i-1)*(m+1)+c]; c++ {
				}
				if i > 0 && c < m {
					group = i
				}
				if i > 0 && c < m-1 {
					part = i
				}
				oid = cur[m]
			} else if i > 0 {
				d := keys[i] ^ keys[i-1]
				if d>>groupShift != 0 {
					group = i
				}
				if d>>partShift != 0 {
					part = i
				}
			}
			oids[i], ranks[i] = uint32(oid), uint32(group-part+1)
		}
	}
	return ranks, oids, nil
}

// mergeWindowRuns merges a window query's runs — cut at the sub-queries'
// pre-cut under a LIMIT — unpacks the merged keys into row oids and
// ranks, and clamps both to the output window.
func mergeWindowRuns(ctx context.Context, runs []*run, g *gather, limit *int, offset, workers int) ([]uint32, []uint32, error) {
	keys, err := mergeRuns(ctx, runs, g.sp, g.cut, workers)
	if err != nil {
		return nil, nil, err
	}
	ranks, oids, err := unpackWindow(ctx, keys, g.sp)
	if err != nil {
		return nil, nil, err
	}
	lo, hi := engine.OutputWindow(len(oids), limit, offset)
	return ranks[lo:hi], oids[lo:hi], nil
}

// groupsPart is a group table in sort order — one shard's decoded one,
// or the combined cross-shard one mergeGroupRuns returns: clause-order
// key vectors, the primary aggregate, and an optional auxiliary
// aggregate (the sum vector of an avg query, merged alongside the
// count).
type groupsPart struct {
	keys [][]uint64
	agg  []uint64
	aux  []uint64
}

// attachAux makes an avg query's sum run the auxiliary aggregate of its
// count run. Both were built against the same spec, so the shard's two
// sub-queries agree on its groups exactly when their merge keys are
// equal.
func attachAux(counts, sums *run, si int) error {
	if !slices.Equal(counts.keys, sums.keys) {
		return fmt.Errorf("%w: avg sub-queries disagree on shard %d's groups", errShardInvalid, si)
	}
	counts.part.aux = sums.part.agg
	return nil
}

// mergeGroupRuns merges per-shard group runs into the combined table,
// in global sort order. Equal keys across shards combine (every shard's
// instance of a group within any group-rank cut is inside that shard's
// local cut, so the combination is complete — docs/sharding.md), agg
// and aux summed per distinct key: for count and sum aggregates the sum
// IS the global aggregate; for avg the caller divides aux (global sum)
// by agg (global count), which is exactly the engine's integer
// arithmetic. The merged order is global, so every instance of a key
// is adjacent to the others; massaging is injective per column, so
// equal sort positions are equal clause-order vectors. One pass reads
// each merged entry through its index; the combined key vectors are
// slices of one flat block.
func mergeGroupRuns(ctx context.Context, runs []*run, g *gather, workers int) (*groupsPart, error) {
	hasAux, partial := false, false
	for _, r := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hasAux = hasAux || len(r.part.aux) > 0
		partial = partial || len(r.part.aux) != len(r.part.keys)
	}
	if hasAux && partial {
		return nil, fmt.Errorf("%w: aux aggregate present on some shards only", errShardInvalid)
	}
	sp, m := g.sp, len(g.sp.order)
	keys, err := mergeRuns(ctx, runs, sp, 0, workers)
	if err != nil {
		return nil, err
	}
	entries := len(keys) / sp.stride()
	out, flat := &groupsPart{}, make([]uint64, 0, entries*m)
	for i := 0; i < entries; i++ {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		idx := sp.index(keys, i)
		si := sort.Search(len(g.ranges), func(s int) bool { return g.ranges[s].Hi > idx })
		part, j := &runs[si].part, idx-g.ranges[si].Lo
		if i > 0 && sp.compare(keys, i-1, i, m) == 0 {
			out.agg[len(out.agg)-1] += part.agg[j]
			if hasAux {
				out.aux[len(out.aux)-1] += part.aux[j]
			}
			continue
		}
		flat = append(flat, part.keys[j]...)
		out.keys, out.agg = append(out.keys, flat[len(flat)-m:len(flat):len(flat)]), append(out.agg, part.agg[j])
		if hasAux {
			out.aux = append(out.aux, part.aux[j])
		}
	}
	return out, nil
}
