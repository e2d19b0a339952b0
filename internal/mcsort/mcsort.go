// Package mcsort executes multi-column sorting under a code-massage plan
// (Figure 2 of the paper): it massages the input columns into round
// keys, then alternates sorting (radix, or the paper's SIMD-sort through
// mergesort.Params.Sort), lookup-based reordering, and group-extraction
// scans, one round per plan entry. It records the
// per-phase wall time so experiments can reproduce the paper's time
// breakdowns, and the per-round N_sort / N_group statistics behind
// Figure 4b.
package mcsort

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/plan"
)

// Per-phase observability: the four subcosts the cost model predicts,
// plus per-round sort/group counters. Writes are no-ops until
// obs.Enable().
var (
	obsExecutes     = obs.NewCounter("mcsort.executes")
	obsRoundsRun    = obs.NewCounter("mcsort.rounds")
	obsGroupSorts   = obs.NewCounter("mcsort.group_sorts")
	obsGroupsFinal  = obs.NewGauge("mcsort.groups_final")
	obsLimitedExecs = obs.NewCounter("mcsort.limited_executes")
	obsRowsCut      = obs.NewCounter("mcsort.rows_truncated")
	obsMassageT     = obs.NewTimer("mcsort.phase_massage")
	obsSortT        = obs.NewTimer("mcsort.phase_sort")
	obsLookupT      = obs.NewTimer("mcsort.phase_lookup")
	obsScanT        = obs.NewTimer("mcsort.phase_scan")
)

// Timings records where the wall time of a multi-column sort went —
// the four subcosts of the paper's cost model.
type Timings struct {
	Massage time.Duration // forming round keys (Step ① of Fig. 2b)
	Sort    time.Duration // sort-kernel invocations (radix unless Params.Sort is set)
	Lookup  time.Duration // reordering round keys by the running permutation
	Scan    time.Duration // extracting group boundaries from sorted keys
}

// Total returns the summed duration of all phases.
func (t Timings) Total() time.Duration { return t.Massage + t.Sort + t.Lookup + t.Scan }

// Add accumulates other into t.
func (t *Timings) Add(other Timings) {
	t.Massage += other.Massage
	t.Sort += other.Sort
	t.Lookup += other.Lookup
	t.Scan += other.Scan
}

// RoundStats captures the quantities the paper's Figure 4b tabulates for
// each round: how many sort-kernel invocations it made, how many groups
// the round produced, and the average size of the groups it had to sort.
type RoundStats struct {
	NSort      int     // sorts invoked (groups of size > 1)
	NGroup     int     // groups after this round's scan
	AvgGroupSz float64 // average input group size for this round
}

// Result is the outcome of a multi-column sort.
type Result struct {
	// Perm is the sorted order: Perm[i] is the oid of the i-th smallest
	// tuple under the sort specification, and tuples equal on every sort
	// column appear in ascending oid order. The sort kernels guarantee
	// the tie order (mergesort.Params.Sort): round 0 sorts the identity
	// permutation, every sort leaves equal keys with ascending oids when
	// they came in ascending, and each later round sorts groups that
	// inherit that order — so every final group, and the LimitRows cut
	// that slices inside one, is oid-ascending. Perm is therefore a
	// function of the inputs and the sort specification only:
	// byte-identical for any Workers, plan or sort path.
	Perm []uint32
	// Groups are the boundaries of runs of tuples equal on all sort
	// columns: group g spans Perm[Groups[g]:Groups[g+1]].
	Groups []int32
	// Timings is the per-phase wall-time breakdown.
	Timings Timings
	// Rounds holds per-round statistics.
	Rounds []RoundStats
}

// Options tunes the execution.
type Options struct {
	// Workers parallelizes every phase when > 1: massaging, the
	// first-round sort (mergesort's parallel radix sort), the
	// group-distributed later rounds (dominant groups sorted by the same
	// parallel sort), and the lookup/permute passes. Output is
	// byte-identical for any value (the tie contract on Result.Perm).
	Workers int
	// SortParams overrides the parallel-path threshold and carries the
	// sort-kernel hook (mergesort.Params.Sort: the figure experiments
	// set it to the paper's kernel, nothing that serves a query does).
	// Zero fields keep their defaults; tests lower ParallelThreshold to
	// exercise the parallel paths on small inputs.
	SortParams *mergesort.Params
	// LimitRows truncates execution to the first LimitRows positions of
	// the final permutation (docs/topk.md): round 0 runs the bounded-heap
	// top-K sort instead of the full sort, later rounds only massage,
	// gather, and sort the surviving prefix, and intermediate truncation
	// always cuts at group boundaries (a raw rank cut would split a tied
	// group whose internal order later rounds still change). The returned
	// Perm has exactly min(LimitRows, rows) entries — byte-identical to
	// the unlimited Perm's prefix at any worker count — and Groups covers
	// it, the last group clipped at the cut. 0 disables.
	LimitRows int
	// LimitGroups truncates to the first LimitGroups full groups (the
	// group-by analogue of LimitRows): round 0 sorts fully, then each
	// scan keeps only the groups that can still contain the first
	// LimitGroups final groups. Perm covers exactly the surviving rows.
	// 0 disables.
	LimitGroups int
}

// sortParams returns the caller's sorter parameters with the parallel
// threshold, which this package reads itself, resolved.
func (o Options) sortParams() mergesort.Params {
	var p mergesort.Params
	if o.SortParams != nil {
		p = *o.SortParams
	}
	if p.ParallelThreshold <= 0 {
		p.ParallelThreshold = mergesort.DefaultParallelThreshold
	}
	return p
}

// ExecuteContext sorts the rows described by inputs according to p. All
// input columns must have the same length, and the plan's total width
// must equal the summed input widths. Cancellation is cooperative and
// faults are contained: the context is polled at round, chunk, and group
// boundaries, so a cancelled or deadline-expired sort returns
// ctx.Err() within one chunk of work, with no goroutine leaks. A
// panicking worker — including a fault injected via
// internal/faultinject — surfaces as a *pipeerr.PipelineError naming
// the stage, round, and worker instead of crashing the process. On any
// error the returned Result is nil and the inputs are untouched (the
// sort operates on massaged copies).
func ExecuteContext(ctx context.Context, inputs []massage.Input, p plan.Plan, opts Options) (*Result, error) {
	res, err := executeContext(ctx, inputs, p, opts)
	if err == nil {
		// Final poll: a cancellation that lands during the last chunk of
		// the last round must still be honored, not dropped.
		err = ctx.Err()
	}
	if err != nil {
		return nil, pipeerr.NoteCancel(err)
	}
	return res, nil
}

func executeContext(ctx context.Context, inputs []massage.Input, p plan.Plan, opts Options) (*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("mcsort: no input columns")
	}
	rows := len(inputs[0].Codes)
	totalW := 0
	for i, in := range inputs {
		if len(in.Codes) != rows {
			return nil, fmt.Errorf("mcsort: column %d has %d rows, want %d", i, len(in.Codes), rows)
		}
		totalW += in.Width
	}
	if err := p.Validate(totalW); err != nil {
		return nil, fmt.Errorf("mcsort: invalid plan %v: %w", p, err)
	}
	prog, err := massage.Compile(inputs, p.Widths())
	if err != nil {
		return nil, err
	}

	res := &Result{
		Perm:   make([]uint32, rows),
		Rounds: make([]RoundStats, len(p.Rounds)),
	}
	for i := range res.Perm {
		if i&(1<<16-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.Perm[i] = uint32(i)
	}
	if rows == 0 {
		res.Groups = []int32{0}
		return res, nil
	}

	// Truncation (docs/topk.md): a LimitRows at or past the row count is
	// the full sort; either limit switches execution to the deferred
	// per-round massage path, where later rounds massage and gather only
	// the surviving prefix.
	limitRows, limitGroups := opts.LimitRows, opts.LimitGroups
	if limitRows < 0 || limitRows >= rows {
		limitRows = 0
	}
	if limitGroups < 0 {
		limitGroups = 0
	}
	limited := limitRows > 0 || limitGroups > 0

	obsExecutes.Inc()
	start := time.Now()
	var roundKeys [][]uint64
	var keys0 []uint64
	if limited {
		obsLimitedExecs.Inc()
		keys0, err = prog.RunRoundParallelContext(ctx, inputs, rows, 0, opts.Workers)
	} else {
		roundKeys, err = prog.RunParallelContext(ctx, inputs, rows, opts.Workers)
	}
	if err != nil {
		return nil, err
	}
	res.Timings.Massage = time.Since(start)
	obsMassageT.Add(res.Timings.Massage)

	sp := opts.sortParams()
	groups := []int32{0, int32(rows)}
	active := rows
	var scratch []uint64
	if !limited {
		scratch = make([]uint64, rows)
	}
	for r, round := range p.Rounds {
		// Round boundary: the cheapest place to notice cancellation.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var keys []uint64
		switch {
		case limited && r == 0:
			keys = keys0
		case limited:
			// Deferred massage, gather-fused: build this round's keys for
			// the survivors only, indexed through the running permutation.
			// This replaces both the upfront massage of this round and the
			// lookup/permute pass, so its time is booked as T_lookup.
			start = time.Now()
			keys, err = prog.RunRoundGatherContext(ctx, inputs, res.Perm[:active], r, opts.Workers)
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			res.Timings.Lookup += d
			obsLookupT.Add(d)
		default:
			keys = roundKeys[r]
			if r > 0 {
				// Lookup: reorder this round's keys by the permutation
				// established so far (random access, the paper's T_lookup),
				// output-chunked across workers.
				start = time.Now()
				if err := parallelPermute(ctx, scratch, keys, res.Perm, opts.Workers, r); err != nil {
					return nil, err
				}
				keys, roundKeys[r] = scratch, keys
				scratch = roundKeys[r]
				d := time.Since(start)
				res.Timings.Lookup += d
				obsLookupT.Add(d)
			}
		}

		// Sort each group of tuples tied on all previous rounds. The
		// first round is one full-table sort, cut into chunks across
		// workers when threading is enabled; later rounds distribute
		// the groups across workers.
		start = time.Now()
		nSort := 0
		var sumSz int
		for g := 0; g+1 < len(groups); g++ {
			sumSz += int(groups[g+1] - groups[g])
		}
		switch {
		case r == 0:
			// Full-table sort (a single sorted run for Workers < 2). Under
			// LimitRows the bounded-heap top-K sort replaces it: only the
			// tie-extended first limitRows positions come back sorted —
			// every row whose key is ≤ the limitRows-th smallest, a
			// value-defined survivor set that is the same at every worker
			// count. keys[m:] and Perm[m:] are garbage from here on; the
			// rows they held have left the pipeline.
			if rows >= 2 {
				if limitRows > 0 {
					m, err := mergesort.TopKContext(ctx, round.Bank, keys, res.Perm, limitRows, sp, opts.Workers)
					if err != nil {
						return nil, err
					}
					active = m
					groups = []int32{0, int32(m)}
				} else if err := mergesort.ParallelSortWithParamsContext(ctx, round.Bank, keys, res.Perm, sp, opts.Workers); err != nil {
					return nil, err
				}
				nSort = 1
			}
		default:
			// Later rounds: the tied groups are distributed across the
			// worker pool (sequential for Workers < 2).
			nSort, err = parallelGroupSort(ctx, round.Bank, keys, res.Perm, groups, opts.Workers, sp, r)
			if err != nil {
				return nil, err
			}
		}
		d := time.Since(start)
		res.Timings.Sort += d
		obsSortT.Add(d)
		obsGroupSorts.Add(int64(nSort))

		nInputGroups := len(groups) - 1

		// Scan: refine group boundaries using the freshly sorted keys.
		start = time.Now()
		groups = refineGroups(groups, keys)
		if limited {
			// Intermediate truncation cuts at group boundaries only: the
			// rows of a group straddling the rank target are still
			// reordered by later rounds, so the whole group survives until
			// the final exact cut below.
			groups = truncateGroups(groups, limitRows, limitGroups)
			active = int(groups[len(groups)-1])
		}
		d = time.Since(start)
		res.Timings.Scan += d
		obsScanT.Add(d)

		res.Rounds[r] = RoundStats{
			NSort:      nSort,
			NGroup:     len(groups) - 1,
			AvgGroupSz: float64(sumSz) / float64(nInputGroups),
		}
	}
	if limitRows > 0 && active > limitRows {
		// Final exact cut: the order inside the boundary group is fixed
		// (oid-ascending, Result.Perm), so slicing the permutation at the
		// rank target is deterministic and equals full-sort-then-slice.
		g := sort.Search(len(groups), func(i int) bool { return int(groups[i]) >= limitRows })
		groups = append(groups[:g:g], int32(limitRows))
		active = limitRows
	}
	if limited {
		res.Perm = res.Perm[:active]
		obsRowsCut.Add(int64(rows - active))
	}
	obsRoundsRun.Add(int64(len(p.Rounds)))
	obsGroupsFinal.Set(int64(len(groups) - 1))
	res.Groups = groups
	return res, nil
}

// refineGroups splits each existing group at positions where the sorted
// key changes — a single sequential pass (the paper's T_scan).
func refineGroups(groups []int32, keys []uint64) []int32 {
	out := make([]int32, 0, len(groups))
	for g := 0; g+1 < len(groups); g++ {
		lo, hi := int(groups[g]), int(groups[g+1])
		out = append(out, int32(lo))
		for i := lo + 1; i < hi; i++ {
			if keys[i] != keys[i-1] {
				out = append(out, int32(i))
			}
		}
	}
	out = append(out, groups[len(groups)-1])
	return out
}
