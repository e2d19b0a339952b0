// Cross-shard merging. Shards return results sorted in the pinned
// column order; the coordinator rebuilds the massaged sort keys and
// merges the pre-sorted per-shard runs with the same machinery the
// engine's sort uses — mergesort.ParallelMergeWithParamsContext for
// full results, ParallelMergeTopKContext with its tie-extended cut for
// LIMIT/OFFSET windows — so the gathered output is the single-node
// output, byte for byte.
package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/mergesort"
)

// errShardInvalid classifies a structurally broken shard response —
// mismatched lengths, out-of-range oids, keys out of sort order. Not
// retryable: the same shard would return the same bytes again.
var errShardInvalid = errors.New("shard: invalid shard response")

// mergeCtxStride is how many merge-loop iterations run between context
// polls in the sequential wide-key paths.
const mergeCtxStride = 1 << 12

// mergeSpec says how to turn a clause-order key vector into the sort
// key the shards sorted by: permute by order (the pinned ColOrder),
// complement descending columns, and concatenate widths — the earlier
// sort column in the higher bits, exactly like the engine's massage.
type mergeSpec struct {
	order  []int  // pinned ColOrder: position i sorts clause column order[i]
	widths []int  // bit width per clause position
	desc   []bool // descending flag per clause position
}

// newMergeSpec is the spec of a bound query under the pinned order.
func newMergeSpec(b *engine.Bound, pin []int) mergeSpec {
	sp := mergeSpec{order: pin, widths: make([]int, len(b.Sort)), desc: make([]bool, len(b.Sort))}
	for i, sc := range b.Sort {
		sp.widths[i], sp.desc[i] = b.Cols[i].Width, sc.Desc
	}
	return sp
}

// totalWidth is the concatenated key width; <= 64 enables the packed
// parallel merge paths.
func (sp mergeSpec) totalWidth() int {
	w := 0
	for _, x := range sp.widths {
		w += x
	}
	return w
}

// code is clause column c of vals as the shards sorted it: masked to
// the column's width, complemented when the column sorts descending.
func (sp mergeSpec) code(vals []uint64, c int) uint64 {
	v := vals[c] & column.Mask(sp.widths[c])
	if sp.desc[c] {
		v = column.Complement(v, sp.widths[c])
	}
	return v
}

// compareVec is the lexicographic order of equal-length massaged
// vectors.
func compareVec(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// keyBuilder turns the shards' runs into the massaged keys the merge
// orders by — one packed uint64 per entry when the clause fits 64 bits,
// one massaged vector per entry otherwise — massaging every entry
// exactly once and checking, in the same pass, that each run really is
// in the order the shards were asked to sort in: the invariant the
// no-compare-data merge relies on. Both result shapes build their keys
// here (addGroups, addRows); merge hands them to the matching merge.
type keyBuilder struct {
	sp   mergeSpec
	wide bool       // concatenated width > 64 bits
	keys []uint64   // packed keys (!wide)
	vecs [][]uint64 // massaged vectors in sort order (wide)
	runs []int      // run boundaries: runs[0] = 0, one more per finished run; the merges only read them
}

func newKeyBuilder(sp mergeSpec, total int) *keyBuilder {
	kb := &keyBuilder{sp: sp, wide: sp.totalWidth() > 64, runs: []int{0}}
	if kb.wide {
		kb.vecs = make([][]uint64, 0, total)
	} else {
		kb.keys = make([]uint64, 0, total)
	}
	return kb
}

func (kb *keyBuilder) len() int { return len(kb.keys) + len(kb.vecs) }

// endRun closes the current run.
func (kb *keyBuilder) endRun() { kb.runs = append(kb.runs, kb.len()) }

// add massages one clause-order vector into the next key of the current
// run. It reports false — and adds nothing — when the key breaks the
// run's order: below its predecessor, or equal to it when tieOK is
// false.
func (kb *keyBuilder) add(vals []uint64, tieOK bool) bool {
	sp := kb.sp
	first := kb.len() == kb.runs[len(kb.runs)-1]
	if kb.wide {
		vec := make([]uint64, len(sp.order))
		for i, c := range sp.order {
			vec[i] = sp.code(vals, c)
		}
		if !first {
			if cmp := compareVec(kb.vecs[len(kb.vecs)-1], vec); cmp > 0 || (cmp == 0 && !tieOK) {
				return false
			}
		}
		kb.vecs = append(kb.vecs, vec)
		return true
	}
	var k uint64
	for _, c := range sp.order {
		k = k<<uint(sp.widths[c]) | sp.code(vals, c)
	}
	if !first {
		if prev := kb.keys[len(kb.keys)-1]; k < prev || (k == prev && !tieOK) {
			return false
		}
	}
	kb.keys = append(kb.keys, k)
	return true
}

// merge merges the finished runs and returns the merged flat-index
// order (run boundaries at runs), cut at limit when limit > 0.
func (kb *keyBuilder) merge(ctx context.Context, limit, workers int) ([]uint32, error) {
	if kb.wide {
		return mergeWide(ctx, kb.vecs, kb.runs, limit)
	}
	return mergeRows64(ctx, kb.keys, kb.runs, limit, workers)
}

// rankMerged is RANK() over the rows a window merge just ordered, read
// from the massaged keys the builder already holds instead of looking
// each row's codes up again. flat is merge's result and is consumed.
// The pinned order keeps the window's ORDER BY column last, so a packed
// key is the partition in its high bits over the order column in its
// low width bits, and a wide vector is the partition columns followed
// by the order column; engine.RankSorted only tests codes for equality,
// which neither the descending complement nor the partition columns'
// permutation changes.
func (kb *keyBuilder) rankMerged(ctx context.Context, flat []uint32) ([]uint32, error) {
	if kb.wide {
		return engine.RankSorted(ctx, flat, len(kb.sp.order), func(f uint32, dst []uint64) {
			copy(dst, kb.vecs[f])
		})
	}
	// The packed merges sort keys in place: position i holds the i-th
	// merged key, so the rows identify themselves.
	for i := range flat {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		flat[i] = uint32(i)
	}
	width := uint(kb.sp.widths[kb.sp.order[len(kb.sp.order)-1]])
	return engine.RankSorted(ctx, flat, 2, func(i uint32, dst []uint64) {
		k := kb.keys[i]
		dst[0], dst[1] = k>>width, k&column.Mask(int(width))
	})
}

// groupsPart is a group table in sort order — one shard's decoded one,
// or the combined cross-shard one mergeGroups returns: clause-order key
// vectors, the primary aggregate, and an optional auxiliary aggregate
// (the sum vector of an avg query, merged alongside the count).
type groupsPart struct {
	keys [][]uint64
	agg  []uint64
	aux  []uint64
}

// addGroups adds one shard's group table as a run, checking it against
// the query shape before its values reach the merge: vector lengths,
// key codes inside their column widths, and strict ascending massaged
// order (groups are distinct keys, so equal adjacent keys are as broken
// as descending ones). Everything a confused or truncated shard
// response could get wrong fails here with errShardInvalid instead of
// corrupting the merged result.
func (kb *keyBuilder) addGroups(ctx context.Context, p groupsPart) error {
	if len(p.keys) != len(p.agg) {
		return fmt.Errorf("%w: %d group keys, %d aggregates", errShardInvalid, len(p.keys), len(p.agg))
	}
	if p.aux != nil && len(p.aux) != len(p.agg) {
		return fmt.Errorf("%w: %d aux aggregates for %d groups", errShardInvalid, len(p.aux), len(p.agg))
	}
	sp := kb.sp
	for g, vec := range p.keys {
		if g&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if len(vec) != len(sp.order) {
			return fmt.Errorf("%w: group %d has %d key columns, want %d", errShardInvalid, g, len(vec), len(sp.order))
		}
		for c, v := range vec {
			if v&^column.Mask(sp.widths[c]) != 0 {
				return fmt.Errorf("%w: group %d key column %d value %d exceeds width %d", errShardInvalid, g, c, v, sp.widths[c])
			}
		}
		if !kb.add(vec, false) {
			return fmt.Errorf("%w: group %d out of sort order", errShardInvalid, g)
		}
	}
	kb.endRun()
	return nil
}

// addRows adds one shard's sorted rows as a run: local oids in the
// shard's sort order, whose sort-column codes the coordinator reads
// from its own full table at the global oid (range base + local oid).
// The run must have its oids inside the shard's range, keys
// non-decreasing, and ties in ascending oid order.
func (kb *keyBuilder) addRows(ctx context.Context, cols []*byteslice.BS, rng Range, oids []uint32, shard int) error {
	vals := make([]uint64, len(cols))
	var prevOid uint32
	for i, oid := range oids {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if int(oid) >= rng.Len() {
			return fmt.Errorf("%w: shard %d row oid %d outside its %d-row range", errShardInvalid, shard, oid, rng.Len())
		}
		for c, bs := range cols {
			vals[c] = bs.Lookup(rng.Lo + int(oid))
		}
		if !kb.add(vals, oid > prevOid) {
			return fmt.Errorf("%w: shard %d row %d out of sort order", errShardInvalid, shard, i)
		}
		prevOid = oid
	}
	kb.endRun()
	return nil
}

// mergeGroups merges per-shard group tables into the combined one, in
// global sort order. Equal keys across shards combine (every shard's
// instance of a group within any group-rank cut is inside that shard's
// local cut, so the combination is complete — docs/sharding.md), agg
// and aux summed per distinct key: for count and sum aggregates the sum
// IS the global aggregate; for avg the caller divides aux (global sum)
// by agg (global count), which is exactly the engine's integer
// arithmetic. Run-order stability is irrelevant for groups because
// equal elements collapse into one output group.
func mergeGroups(ctx context.Context, parts []groupsPart, sp mergeSpec, workers int) (*groupsPart, error) {
	hasAux := false
	total := 0
	for _, p := range parts {
		total += len(p.keys)
		if p.aux != nil {
			hasAux = true
		}
	}
	kb := newKeyBuilder(sp, total)
	for _, p := range parts {
		if err := kb.addGroups(ctx, p); err != nil {
			return nil, err
		}
		if hasAux && p.aux == nil && len(p.keys) > 0 {
			return nil, fmt.Errorf("%w: aux aggregate present on some shards only", errShardInvalid)
		}
	}
	out := &groupsPart{}
	if total == 0 {
		return out, nil
	}

	flat, err := kb.merge(ctx, 0, workers)
	if err != nil {
		return nil, err
	}

	// Combine adjacent equal keys. The flat order is globally sorted,
	// so one forward pass sees every instance of a key consecutively.
	var curVec []uint64
	for i, f := range flat {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pi, gi := locateFlat(kb.runs, f)
		vec := parts[pi].keys[gi]
		if curVec != nil && sameClauseKey(curVec, vec) {
			last := len(out.agg) - 1
			out.agg[last] += parts[pi].agg[gi]
			if hasAux {
				out.aux[last] += parts[pi].aux[gi]
			}
			continue
		}
		curVec = vec
		out.keys = append(out.keys, append([]uint64(nil), vec...))
		out.agg = append(out.agg, parts[pi].agg[gi])
		if hasAux {
			out.aux = append(out.aux, parts[pi].aux[gi])
		}
	}
	return out, nil
}

// sameClauseKey: equality of clause-order key vectors. Massaging is
// injective per column, so clause-order equality and sort-order
// equality agree.
func sameClauseKey(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeRows64 merges pre-sorted runs of packed 64-bit keys and returns
// the merged flat-index order. keys is the concatenation of the runs
// (runs[0]=0 … runs[len-1]=len(keys)). limit > 0 cuts the merge at
// that output rank via the tie-extended ParallelMergeTopKContext and
// trims to exactly limit elements — sound because keys[0:limit] of the
// tie-extended cut equal the full merge's first limit elements, and
// the run-index-stable tie order is the ascending-global-oid canonical
// order (range partitioning puts lower global oids in lower runs).
func mergeRows64(ctx context.Context, keys []uint64, runs []int, limit, workers int) ([]uint32, error) {
	n := len(keys)
	if n == 0 {
		return nil, nil
	}
	oids := make([]uint32, n)
	for i := range oids {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		oids[i] = uint32(i)
	}
	if limit > 0 && limit < n {
		m, err := mergesort.ParallelMergeTopKContext(ctx, 64, keys, oids, runs, limit, mergesort.Params{}, workers)
		if err != nil {
			return nil, err
		}
		if m > limit {
			m = limit
		}
		return oids[:m], nil
	}
	if err := mergesort.ParallelMergeWithParamsContext(ctx, 64, keys, oids, runs, mergesort.Params{}, workers); err != nil {
		return nil, err
	}
	return oids, nil
}

// mergeWide is the fallback k-way merge for concatenated key widths
// beyond 64 bits: massaged key vectors compared lexicographically,
// ties resolved toward the lower run — the same (key, run) order the
// packed paths produce. Sequential: wide clauses are rare and the
// element count here is per-shard-truncated already.
func mergeWide(ctx context.Context, vecs [][]uint64, runs []int, limit int) ([]uint32, error) {
	n := len(vecs)
	if n == 0 {
		return nil, nil
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	heads := make([]int, len(runs)-1)
	for r := range heads {
		heads[r] = runs[r]
	}
	out := make([]uint32, 0, limit)
	for len(out) < limit {
		if len(out)&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		best := -1
		for r := range heads {
			if heads[r] >= runs[r+1] {
				continue
			}
			if best < 0 || compareVec(vecs[heads[r]], vecs[heads[best]]) < 0 {
				best = r
			}
		}
		if best < 0 {
			break
		}
		out = append(out, uint32(heads[best]))
		heads[best]++
	}
	return out, nil
}

// locateFlat maps a flat index back to (part, local index); offsets
// are the parts' cumulative start offsets plus the total — a key
// builder's runs.
func locateFlat(offsets []int, f uint32) (int, int) {
	lo, hi := 0, len(offsets)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if int(f) >= offsets[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, int(f) - offsets[lo]
}
