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

	"repro/internal/column"
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

// totalWidth is the concatenated key width; <= 64 enables the packed
// parallel merge paths.
func (sp mergeSpec) totalWidth() int {
	w := 0
	for _, x := range sp.widths {
		w += x
	}
	return w
}

// pack builds the packed massaged key of one clause-order vector.
// Callers must have checked totalWidth() <= 64.
func (sp mergeSpec) pack(vals []uint64) uint64 {
	var k uint64
	for _, c := range sp.order {
		v := vals[c] & column.Mask(sp.widths[c])
		if sp.desc[c] {
			v = column.Complement(v, sp.widths[c])
		}
		k = k<<uint(sp.widths[c]) | v
	}
	return k
}

// massage fills out with the massaged vector in sort order (for the
// wide-key lexicographic compare).
func (sp mergeSpec) massage(vals []uint64, out []uint64) {
	for i, c := range sp.order {
		v := vals[c] & column.Mask(sp.widths[c])
		if sp.desc[c] {
			v = column.Complement(v, sp.widths[c])
		}
		out[i] = v
	}
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

// groupsPart is one shard's decoded group table: clause-order key
// vectors, the primary aggregate, and an optional auxiliary aggregate
// (the sum vector of an avg query, merged alongside the count).
type groupsPart struct {
	keys [][]uint64
	agg  []uint64
	aux  []uint64
}

// validateGroups checks one shard's group table against the query
// shape before its values reach the merge: vector lengths, key codes
// inside their column widths, and strict ascending massaged order
// (groups are distinct keys, so equal adjacent keys are as broken as
// descending ones). Everything a confused or truncated shard response
// could get wrong fails here with errShardInvalid instead of
// corrupting the merged result.
func validateGroups(p groupsPart, sp mergeSpec) error {
	if len(p.keys) != len(p.agg) {
		return fmt.Errorf("%w: %d group keys, %d aggregates", errShardInvalid, len(p.keys), len(p.agg))
	}
	if p.aux != nil && len(p.aux) != len(p.agg) {
		return fmt.Errorf("%w: %d aux aggregates for %d groups", errShardInvalid, len(p.aux), len(p.agg))
	}
	m := len(sp.order)
	prev := make([]uint64, m)
	cur := make([]uint64, m)
	for g, vec := range p.keys {
		if len(vec) != m {
			return fmt.Errorf("%w: group %d has %d key columns, want %d", errShardInvalid, g, len(vec), m)
		}
		for c, v := range vec {
			if v&^column.Mask(sp.widths[c]) != 0 {
				return fmt.Errorf("%w: group %d key column %d value %d exceeds width %d", errShardInvalid, g, c, v, sp.widths[c])
			}
		}
		sp.massage(vec, cur)
		if g > 0 && compareVec(prev, cur) >= 0 {
			return fmt.Errorf("%w: group %d out of sort order", errShardInvalid, g)
		}
		prev, cur = cur, prev
	}
	return nil
}

// mergedGroups is the combined cross-shard group table, in global sort
// order. agg and aux are summed across shards per distinct key — for
// count and sum aggregates the sum IS the global aggregate; for avg
// the caller divides aux (global sum) by agg (global count), which is
// exactly the engine's integer arithmetic.
type mergedGroups struct {
	keys [][]uint64
	agg  []uint64
	aux  []uint64
}

// mergeGroups merges per-shard group tables. Equal keys across shards
// combine (every shard's instance of a group within any group-rank cut
// is inside that shard's local cut, so the combination is complete —
// docs/sharding.md); run-order stability is irrelevant for groups
// because equal elements collapse into one output group.
func mergeGroups(ctx context.Context, parts []groupsPart, sp mergeSpec, workers int) (*mergedGroups, error) {
	hasAux := false
	total := 0
	for _, p := range parts {
		if err := ctx.Err(); err != nil { // validateGroups scans every group
			return nil, err
		}
		if err := validateGroups(p, sp); err != nil {
			return nil, err
		}
		total += len(p.keys)
		if p.aux != nil {
			hasAux = true
		}
	}
	if hasAux {
		for _, p := range parts {
			if p.aux == nil && len(p.keys) > 0 {
				return nil, fmt.Errorf("%w: aux aggregate present on some shards only", errShardInvalid)
			}
		}
	}
	out := &mergedGroups{}
	if total == 0 {
		return out, nil
	}

	flat, err := mergeFlatGroups(ctx, parts, sp, total, workers)
	if err != nil {
		return nil, err
	}

	// Combine adjacent equal keys. The flat order is globally sorted,
	// so one forward pass sees every instance of a key consecutively.
	offsets := partOffsets(len(parts), func(i int) int { return len(parts[i].keys) })
	locate := func(f uint32) (int, int) { return locateFlat(offsets, f) }
	var curVec []uint64
	for i, f := range flat {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pi, gi := locate(f)
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

// mergeFlatGroups produces the globally sorted order of all parts'
// groups as flat indices (part boundaries at cumulative counts).
func mergeFlatGroups(ctx context.Context, parts []groupsPart, sp mergeSpec, total, workers int) ([]uint32, error) {
	if sp.totalWidth() <= 64 {
		keys := make([]uint64, 0, total)
		runs := []int{0}
		for _, p := range parts {
			for _, vec := range p.keys {
				if len(keys)&(mergeCtxStride-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				keys = append(keys, sp.pack(vec))
			}
			runs = append(runs, len(keys))
		}
		return mergeRows64(ctx, keys, runs, 0, workers)
	}
	vecs := make([][]uint64, 0, total)
	runs := []int{0}
	buf := make([]uint64, len(sp.order))
	for _, p := range parts {
		for _, vec := range p.keys {
			if len(vecs)&(mergeCtxStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			sp.massage(vec, buf)
			vecs = append(vecs, append([]uint64(nil), buf...))
		}
		runs = append(runs, len(vecs))
	}
	return mergeWide(ctx, vecs, runs, 0)
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

// partOffsets returns the cumulative start offset of each part in the
// flat index space, plus the total as the final entry.
func partOffsets(parts int, size func(int) int) []int {
	off := make([]int, parts+1)
	for i := 0; i < parts; i++ {
		off[i+1] = off[i] + size(i)
	}
	return off
}

// locateFlat maps a flat index back to (part, local index).
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
