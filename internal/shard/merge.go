// Cross-shard merging. Shards return results sorted in the pinned
// column order; the coordinator turns each shard's answer into a run —
// validated and keyed column at a time on the fan-out goroutine that
// received it, while slower shards are still sorting — and merges the
// runs in place, stable by run index, with mergesort.MergeRunsContext
// (cut at exactly the sub-queries' pre-cut under a LIMIT), or with
// mergeWide when the keys are code vectors — so the gathered output is
// the single-node output, byte for byte.
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

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
// key the shards sorted by: permute by order (the pinned ColOrder),
// complement descending columns, and concatenate widths — the earlier
// sort column in the higher bits, exactly like the engine's massage.
type mergeSpec struct {
	order  []int  // pinned ColOrder: position i sorts clause column order[i]
	widths []int  // bit width per clause position
	desc   []bool // descending flag per clause position
	wide   bool   // keys are massaged code vectors, not packed words (set when the widths exceed 64 bits)
}

// newMergeSpec is the spec of a bound query under the pinned order.
func newMergeSpec(b *engine.Bound, pin []int) mergeSpec {
	sp := mergeSpec{order: pin, widths: make([]int, len(b.Sort)), desc: make([]bool, len(b.Sort))}
	for i, sc := range b.Sort {
		sp.widths[i], sp.desc[i] = b.Cols[i].Width, sc.Desc
	}
	sp.wide = sp.totalWidth() > 64
	return sp
}

// totalWidth is the concatenated key width.
func (sp mergeSpec) totalWidth() int {
	w := 0
	for _, x := range sp.widths {
		w += x
	}
	return w
}

// run is one shard's sub-query answer as the merge consumes it: the
// massaged sort key of every entry, in the shard's order — one packed
// word per entry, or m massaged codes per entry (entry i at
// keys[i·m:(i+1)·m]) under a wide spec — and the merge's payload. A
// window run keeps its entries' global oids as the payload and nothing
// else of the decoded result but its row count; a group run keeps the
// shard's group table, and mergeGroupRuns sets its payload.
type run struct {
	rows int        // the shard's filtered row count
	keys []uint64   // massaged sort keys
	pay  []uint32   // window runs: global oids; group runs: flat entry index
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
// checks the answer against the query shape and rebuilds its massaged
// sort keys from codes the coordinator trusts — a window run's from the
// coordinator's own full table at the global oid (the shards do not
// ship keys: deriving them here is the stronger check), a group table's
// from its key vectors after checking each code against its width —
// then requires the order the merge relies on: keys non-decreasing,
// and ties strictly oid-ascending (groups are distinct keys, so for
// them every tie is out of order). It works column at a time: one pass
// over the oids, then per pinned column one pass of mergeCtxStride-row
// blocks — a window run's block of codes batch-Gathered into one buffer
// reused across blocks and columns — that masks, complements and
// shifts each code into the keys, then one order pass.
// Anything a confused or truncated shard could get wrong fails here
// with errShardInvalid instead of reaching the merge.
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
	var n int
	if g.cols != nil {
		n = res.Rows
		if g.cut > 0 && g.cut < n {
			n = g.cut
		}
		if len(res.RowOids) != n || len(res.Ranks) != n {
			return nil, fmt.Errorf("%w: shard %d sent %d oids and %d ranks for %d rows, want %d", errShardInvalid, si, len(res.RowOids), len(res.Ranks), res.Rows, n)
		}
		r.pay = make([]uint32, n)
		for i, oid := range res.RowOids {
			if i&(mergeCtxStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if int(oid) >= rng.Len() {
				return nil, fmt.Errorf("%w: shard %d row oid %d outside its %d-row range", errShardInvalid, si, oid, rng.Len())
			}
			r.pay[i] = uint32(rng.Lo) + oid
		}
	} else {
		n = len(res.GroupKeys)
		if len(res.Aggregates) != n {
			return nil, fmt.Errorf("%w: shard %d sent %d group keys, %d aggregates", errShardInvalid, si, n, len(res.Aggregates))
		}
		if n > res.Rows {
			return nil, fmt.Errorf("%w: shard %d sent %d groups for %d rows", errShardInvalid, si, n, res.Rows)
		}
		for i, vec := range res.GroupKeys {
			if i&(mergeCtxStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if len(vec) != m {
				return nil, fmt.Errorf("%w: shard %d group %d has %d key columns, want %d", errShardInvalid, si, i, len(vec), m)
			}
		}
		r.part = groupsPart{keys: res.GroupKeys, agg: res.Aggregates}
	}

	stride := 1
	if sp.wide {
		stride = m
	}
	r.keys = make([]uint64, n*stride)
	var codes []uint64 // window runs: one block of one pinned column's codes
	if g.cols != nil {
		codes = make([]uint64, mergeCtxStride)
	}
	for pos, c := range sp.order {
		w, mask, desc := uint(sp.widths[c]), column.Mask(sp.widths[c]), sp.desc[c]
		for lo := 0; lo < n; lo += mergeCtxStride {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			hi := min(lo+mergeCtxStride, n)
			if codes != nil {
				g.cols[c].Gather(codes, r.pay[lo:hi])
			}
			for i := lo; i < hi; i++ {
				var v uint64
				if codes != nil {
					v = codes[i-lo]
				} else {
					v = r.part.keys[i][c]
				}
				if v&^mask != 0 {
					return nil, fmt.Errorf("%w: shard %d entry %d key column %d value %d exceeds width %d", errShardInvalid, si, i, c, v, w)
				}
				if desc {
					v ^= mask
				}
				if sp.wide {
					r.keys[i*m+pos] = v
				} else {
					r.keys[i] = r.keys[i]<<w | v
				}
			}
		}
	}

	for i := 1; i < n; i++ {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var order int
		if sp.wide {
			order = slices.Compare(r.keys[(i-1)*m:i*m], r.keys[i*m:(i+1)*m])
		} else {
			order = cmp.Compare(r.keys[i-1], r.keys[i])
		}
		if order > 0 || order == 0 && (r.pay == nil || r.pay[i-1] >= r.pay[i]) {
			return nil, fmt.Errorf("%w: shard %d entry %d out of sort order", errShardInvalid, si, i)
		}
	}
	return r, nil
}

// mergeRuns merges the runs' keys with their payloads, stable by run
// index, cut at exactly limit entries when limit > 0. It returns the
// merged keys, in the runs' key form, and the merged payload. Runs are
// in range order and a window run's ties are oid-ascending, so the
// run-index-stable order is the ascending-global-oid canonical order,
// and a window merge's payload is the answer's row oids.
func mergeRuns(ctx context.Context, runs []*run, sp mergeSpec, limit, workers int) ([]uint64, []uint32, error) {
	keys, pay := make([][]uint64, len(runs)), make([][]uint32, len(runs))
	for i, r := range runs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		keys[i], pay[i] = r.keys, r.pay
	}
	if sp.wide {
		return mergeWide(ctx, keys, pay, len(sp.order), limit)
	}
	return mergesort.MergeRunsContext(ctx, keys, pay, limit, workers)
}

// mergeWide is the merge of code vectors (m per entry), for clauses
// wider than 64 bits: a sequential k-way lexicographic merge with
// MergeRunsContext's lower-run tie preference and limit cut, reading the
// runs in place. Wide clauses are rare and the entry count is
// per-shard-truncated already.
func mergeWide(ctx context.Context, keys [][]uint64, pay [][]uint32, m, limit int) ([]uint64, []uint32, error) {
	heads := make([]int, len(pay))
	vec := func(r int) []uint64 { return keys[r][heads[r]*m : (heads[r]+1)*m] }
	var outK []uint64
	var outP []uint32
	for limit <= 0 || len(outP) < limit {
		if len(outP)&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		best := -1
		for r, h := range heads {
			if h < len(pay[r]) && (best < 0 || slices.Compare(vec(r), vec(best)) < 0) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		outK = append(outK, vec(best)...)
		outP = append(outP, pay[best][heads[best]])
		heads[best]++
	}
	return outK, outP, nil
}

// rank is RANK() over a merged window, read from its merged keys
// instead of looking each row's codes up again. The pinned order keeps
// the window's ORDER BY column last, so a packed key is the partition
// in its high bits over the order column in its low width bits, and a
// code vector is the partition columns followed by the order column;
// engine.RankSorted only tests codes for equality, which neither the
// descending complement nor the partition columns' permutation changes.
func rank(ctx context.Context, keys []uint64, n int, sp mergeSpec) ([]uint32, error) {
	pos := make([]uint32, n)
	for i := range pos {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pos[i] = uint32(i)
	}
	if sp.wide {
		m := len(sp.order)
		return engine.RankSorted(ctx, pos, m, func(i uint32, dst []uint64) {
			copy(dst, keys[int(i)*m:])
		})
	}
	width := sp.widths[sp.order[len(sp.order)-1]]
	mask := column.Mask(width)
	return engine.RankSorted(ctx, pos, 2, func(i uint32, dst []uint64) {
		k := keys[i]
		dst[0], dst[1] = k>>uint(width), k&mask
	})
}

// mergeWindowRuns merges a window query's runs — cut at the sub-queries'
// pre-cut under a LIMIT — ranks the merged order with the engine's own
// RANK over the merged keys (ranks only look backward, so ranking the
// merged prefix is exact), and clamps both to the output window.
func mergeWindowRuns(ctx context.Context, runs []*run, g *gather, limit *int, offset, workers int) ([]uint32, []uint32, error) {
	keys, oids, err := mergeRuns(ctx, runs, g.sp, g.cut, workers)
	if err != nil {
		return nil, nil, err
	}
	ranks, err := rank(ctx, keys, len(oids), g.sp)
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
// sub-queries agree on its groups exactly when their massaged keys are
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
// arithmetic. Run-order stability is irrelevant for groups because
// equal elements collapse into one output group.
func mergeGroupRuns(ctx context.Context, runs []*run, sp mergeSpec, workers int) (*groupsPart, error) {
	// The payload is each entry's index in the concatenated tables.
	var all groupsPart
	for _, r := range runs {
		r.pay = make([]uint32, len(r.part.keys))
		for j := range r.pay {
			if j&(mergeCtxStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			r.pay[j] = uint32(len(all.keys) + j)
		}
		all.keys = append(all.keys, r.part.keys...)
		all.agg = append(all.agg, r.part.agg...)
		all.aux = append(all.aux, r.part.aux...)
	}
	hasAux := len(all.aux) > 0
	if hasAux && len(all.aux) != len(all.keys) {
		return nil, fmt.Errorf("%w: aux aggregate present on some shards only", errShardInvalid)
	}
	_, order, err := mergeRuns(ctx, runs, sp, 0, workers)
	if err != nil {
		return nil, err
	}

	// Combine adjacent equal keys. The merged order is global, so one
	// forward pass sees every instance of a key consecutively; massaging
	// is injective per column, so equal clause-order vectors are equal
	// sort keys.
	out := &groupsPart{}
	for i, f := range order {
		if i&(mergeCtxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		vec := all.keys[f]
		if i > 0 && slices.Equal(out.keys[len(out.keys)-1], vec) {
			last := len(out.agg) - 1
			out.agg[last] += all.agg[f]
			if hasAux {
				out.aux[last] += all.aux[f]
			}
			continue
		}
		out.keys = append(out.keys, append([]uint64(nil), vec...))
		out.agg = append(out.agg, all.agg[f])
		if hasAux {
			out.aux = append(out.aux, all.aux[f])
		}
	}
	return out, nil
}
