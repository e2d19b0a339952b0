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
	//
	// Under Options.Payload, Perm[i] is instead the payload code of the
	// row at sorted position i, and the order of the codes inside a
	// group of equal keys is the sort's: their multiset per group is
	// fixed, their order is not. A one-round plan sorts the codes from
	// the start; a longer one sorts oids until its last round's lookup,
	// which swaps each for its code.
	Perm []uint32
	// Groups are the boundaries of runs of tuples equal on all sort
	// columns: group g spans Perm[Groups[g]:Groups[g+1]].
	Groups []int32
	// Keys are the sorted round keys: Keys[r][i] is round r's key of
	// row Perm[i]. They cost nothing extra — round 0 sorts its keys in
	// place, each later round sorts a permuted copy no later round
	// reuses, and every sort after a round only reorders rows that tie
	// on it — and by Lemma 1 they are the concatenation C₁‖…‖C_m of the
	// sort columns cut into rounds, so the consumers of the sort read
	// them (Codes, SamePrefix) instead of the inputs through Perm.
	Keys [][]uint64
	// Timings is the per-phase wall-time breakdown.
	Timings Timings
	// Rounds holds per-round statistics.
	Rounds []RoundStats

	prog   *massage.Program // the massage that built Keys, for Codes
	widths []int            // the round widths, for SamePrefix
}

// Codes decodes the input codes at the sorted positions pos: dst[k·m +
// order[c]], m = len(order), gets the code of input column c (in the
// order ExecuteContext was given them) of the row at position pos[k]
// (row Perm[pos[k]] of an oid sort). They are the round keys at pos[k]
// massaged back a block of positions at a time
// (massage.Program.Decode), so order can put them straight into a
// caller's own column order. Reading them is sequential in increasing
// positions, where the inputs at Perm[pos[k]] are a random access per
// column. dst[:len(pos)·m] is overwritten.
func (r *Result) Codes(dst []uint64, pos []int32, order []int) {
	r.prog.Decode(r.Keys, pos, order, dst)
}

// SamePrefix reports whether the rows at positions i and j agree on the
// first bits bits of the concatenated key C₁‖…‖C_m: whole round keys
// while bits covers them, then the top bits of the round it ends in.
// A DESC column is complemented in the keys, which equality ignores.
func (r *Result) SamePrefix(i, j, bits int) bool {
	for d, w := range r.widths {
		if bits <= 0 {
			break
		}
		x := r.Keys[d][i] ^ r.Keys[d][j]
		if bits < w {
			return x>>uint(w-bits) == 0
		}
		if x != 0 {
			return false
		}
		bits -= w
	}
	return true
}

// Options tunes the execution.
type Options struct {
	// Workers parallelizes every phase when > 1: massaging, the
	// first-round sort (mergesort's parallel radix sort), the
	// group-distributed later rounds (dominant groups sorted by the same
	// parallel sort), the lookup/permute passes and the group scans.
	// Output is byte-identical for any value (the tie contract on
	// Result.Perm).
	Workers int
	// SortParams carries the sort-kernel hook (mergesort.Params.Sort:
	// the figure experiments set it to the paper's kernel, nothing that
	// serves a query does). nil sorts with the production kernel.
	SortParams *mergesort.Params
	// LimitRows truncates execution to the first LimitRows positions of
	// the final permutation (docs/topk.md): round 0 runs the top-K sort
	// instead of the full sort, later rounds only massage, gather, and
	// sort the surviving prefix, and intermediate truncation always cuts
	// at group boundaries (a raw rank cut would split a tied group whose
	// internal order later rounds still change). The returned Perm has
	// exactly min(LimitRows, rows) entries — byte-identical to the
	// unlimited Perm's prefix at any worker count — and Groups covers it,
	// the last group clipped at the cut. 0 disables.
	LimitRows int
	// LimitGroups truncates to the first LimitGroups full groups (the
	// group-by analogue of LimitRows): round 0 sorts fully, then each
	// scan keeps only the groups that can still contain the first
	// LimitGroups final groups. Perm covers exactly the surviving rows.
	// 0 disables.
	LimitGroups int
	// Payload, when set, is a column the sort carries in place of the
	// oids, and Result.Perm holds its codes in sorted order. A caller
	// that needs only an order-free fold of that column per final group
	// (a SUM) then reads it sequentially. Under a one-round plan the
	// uint32 payload of row i starts as its code, not i. A longer plan
	// sorts oids, which every later round looks its keys up through, and
	// reads the column's codes in selection order into an array of their
	// own just before its last round's lookup, which swaps each oid for
	// its code as it reads it; that round's group sorts carry the codes.
	// The fill is booked in Timings.Massage either way.
	// It needs no limit — a LimitRows cut inside a group follows oids,
	// and under LimitGroups the fill would read every row for the few
	// that survive — and a column of at most 32 bits.
	Payload *massage.Source
}

// ExecuteContext sorts the rows described by inputs according to p. All
// input columns must have the same length (massage.Input.Len), and the
// plan's total width must equal the summed input widths. Cancellation is cooperative and
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
	rows := inputs[0].Len()
	totalW := 0
	for i, in := range inputs {
		if in.Len() != rows {
			return nil, fmt.Errorf("mcsort: column %d has %d rows, want %d", i, in.Len(), rows)
		}
		totalW += in.Width
	}
	if err := p.Validate(totalW); err != nil {
		return nil, fmt.Errorf("mcsort: invalid plan %v: %w", p, err)
	}
	if pl := opts.Payload; pl != nil {
		n := massage.Input{Source: pl}.Len()
		switch {
		case opts.LimitRows > 0 || opts.LimitGroups > 0:
			return nil, fmt.Errorf("mcsort: a payload cannot be cut at %d rows or %d groups", opts.LimitRows, opts.LimitGroups)
		case pl.Column.Width > 32:
			return nil, fmt.Errorf("mcsort: a payload of %d bits does not fit 32", pl.Column.Width)
		case n != rows:
			return nil, fmt.Errorf("mcsort: the payload has %d rows, want %d", n, rows)
		}
	}
	prog, err := massage.Compile(inputs, p.Widths())
	if err != nil {
		return nil, err
	}

	res := &Result{
		Perm:   make([]uint32, rows),
		Keys:   make([][]uint64, len(p.Rounds)),
		Rounds: make([]RoundStats, len(p.Rounds)),
		prog:   prog,
		widths: p.Widths(),
	}
	if opts.Payload == nil || len(p.Rounds) > 1 {
		for i := range res.Perm {
			if i&(1<<16-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			res.Perm[i] = uint32(i)
		}
	}
	if rows == 0 {
		res.Groups = []int32{0}
		return res, nil
	}

	// Truncation (docs/topk.md): a LimitRows at or past the row count is
	// the full sort; either limit switches execution to the deferred
	// per-round massage path, where later rounds massage and gather only
	// the surviving prefix. Either path reads ByteSlice-backed inputs
	// (massage.Input.Source) straight from their byte planes.
	limited := (opts.LimitRows > 0 && opts.LimitRows < rows) || opts.LimitGroups > 0
	limitRows, limitGroups := max(opts.LimitRows, 0), max(opts.LimitGroups, 0)
	if limitRows >= rows {
		limitRows = 0
	}

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
	// A carried payload under one round: its codes in place of the
	// oids before the sort (a longer plan fills it at its last lookup).
	if err == nil && opts.Payload != nil && len(p.Rounds) == 1 {
		err = carryPayload(ctx, res.Perm, opts.Payload, opts.Workers, 0)
	}
	if err != nil {
		return nil, err
	}
	res.Timings.Massage = time.Since(start)
	obsMassageT.Add(res.Timings.Massage)

	var sp mergesort.Params
	if opts.SortParams != nil {
		sp = *opts.SortParams
	}
	groups := []int32{0, int32(rows)}
	active := rows
	// The lookup's permute target: only an unlimited plan of more than
	// one round permutes keys. It is allocated at round 1's lookup, once
	// round 0's sort and its radix scratch are done, so the two are
	// never live together.
	var scratch []uint64
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
			keys, roundKeys[r] = roundKeys[r], nil
			if r > 0 {
				// Lookup: reorder this round's keys by the permutation
				// established so far (random access, the paper's T_lookup),
				// output-chunked across workers. The unpermuted keys are the
				// next round's target. The last round's lookup also swaps
				// a carried payload's codes in for the oids: they are read
				// in selection order just before it, when every earlier
				// round's sort scratch is dead, and die with it.
				var pay []uint32
				if opts.Payload != nil && r == len(p.Rounds)-1 {
					start = time.Now()
					pay = make([]uint32, rows)
					if err := carryPayload(ctx, pay, opts.Payload, opts.Workers, r); err != nil {
						return nil, err
					}
					d := time.Since(start)
					res.Timings.Massage += d
					obsMassageT.Add(d)
				}
				start = time.Now()
				if scratch == nil {
					scratch = make([]uint64, rows)
				}
				if err := parallelPermute(ctx, scratch, keys, res.Perm, pay, opts.Workers, r); err != nil {
					return nil, err
				}
				keys, scratch = scratch, keys
				if r == len(p.Rounds)-1 {
					scratch = nil // the unpermuted keys: no later round permutes into them
				}
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
		sumSz := int(groups[len(groups)-1] - groups[0]) // the input groups' rows
		switch {
		case r == 0:
			// Full-table sort (a single sorted run for Workers < 2). Under
			// LimitRows the top-K sort replaces it: only the tie-extended
			// first limitRows positions come back sorted —
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
		res.Keys[r] = keys
		d := time.Since(start)
		res.Timings.Sort += d
		obsSortT.Add(d)
		obsGroupSorts.Add(int64(nSort))

		nInputGroups := len(groups) - 1

		// Scan: refine group boundaries using the freshly sorted keys.
		start = time.Now()
		groups, err = refineGroups(ctx, groups, keys, opts.Workers, r)
		if err != nil {
			return nil, err
		}
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
		for r := range res.Keys {
			res.Keys[r] = res.Keys[r][:active]
		}
		obsRowsCut.Add(int64(rows - active))
	}
	obsRoundsRun.Add(int64(len(p.Rounds)))
	obsGroupsFinal.Set(int64(len(groups) - 1))
	res.Groups = groups
	return res, nil
}
