package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
)

// Section 3's example figures: multi-column sorts over the paper's
// synthetic columns (N rows, 2^13 distinct values per column — or 2^w
// when w < 13 — uniform over the full w-bit domain).

// syntheticInputs builds the paper's example columns.
func syntheticInputs(cfg Config, widths []int) []massage.Input {
	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := make([]massage.Input, len(widths))
	for i, w := range widths {
		distinct := 1 << 13
		if w < 13 {
			distinct = 1 << uint(w)
		}
		col := datagen.Uniform(rng, cfg.Rows, w, distinct)
		inputs[i] = massage.Input{Codes: col.Codes, Width: w}
	}
	return inputs
}

// planLabel names a plan the way the figures do.
func planLabel(widths []int, p plan.Plan) string {
	if p.Equal(plan.ColumnAtATime(widths)) {
		return "P0"
	}
	return p.String()
}

// measureReps is how many times measurePlans runs each plan; the
// fastest repetition is the one reported, so one preempted run on a
// shared machine cannot flip a comparison between plans.
const measureReps = 3

// measurePlans executes each plan over the same inputs — measureReps
// times, interleaved across plans (P0, P1, P0, P1, …) so drift hits
// them alike — and reports the phase breakdown of each plan's fastest
// repetition.
func measurePlans(cfg Config, widths []int, plans []plan.Plan, labels []string) (*Report, error) {
	inputs := syntheticInputs(cfg, widths)
	rep := &Report{
		Header: []string{"plan", "rounds", "massage_ms", "sort_ms", "lookup_ms", "scan_ms", "total_ms"},
	}
	best := make([]mcsort.Timings, len(plans))
	errs := make([]error, len(plans))
	for r := 0; r < measureReps; r++ {
		for i, p := range plans {
			if errs[i] != nil {
				continue
			}
			res, err := mcsort.ExecuteContext(cfg.context(), inputs, p, mcsort.Options{SortParams: paperKernel()})
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				errs[i] = err
				continue
			}
			if r == 0 || res.Timings.Total() < best[i].Total() {
				best[i] = res.Timings
			}
		}
	}
	var baseline float64
	for i, p := range plans {
		if errs[i] != nil {
			rep.Rows = append(rep.Rows, []string{labels[i], "ERR", errs[i].Error()})
			continue
		}
		t := best[i]
		total := float64(t.Total().Nanoseconds()) / 1e6
		if i == 0 {
			baseline = total
		}
		rep.Rows = append(rep.Rows, []string{
			labels[i],
			fmt.Sprintf("%d", len(p.Rounds)),
			ms(t.Massage), ms(t.Sort), ms(t.Lookup), ms(t.Scan),
			fmt.Sprintf("%.2f (%.2fx vs P0)", total, baseline/total),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("N=%d rows, 2^13 distinct values per column (2^w when w<13)", cfg.Rows),
		fmt.Sprintf("each plan: fastest of %d interleaved repetitions", measureReps))
	return rep, nil
}

// Figure3a — Example Ex1: ORDER BY a 10-bit and a 17-bit column. The
// stitch-all plan P≪17 = {R1: 27/[32]} removes a round, a lookup and a
// scan, and must beat P0 = {R1: 10/[16], R2: 17/[32]}.
func Figure3a(cfg Config) (*Report, error) {
	cfg.defaults()
	widths := []int{10, 17}
	plans := []plan.Plan{
		plan.ColumnAtATime(widths),
		{Rounds: []plan.Round{{Width: 27, Bank: 32}}},
	}
	rep, err := measurePlans(cfg, widths, plans, []string{"P0", "P<<17 (stitch)"})
	if err != nil {
		return nil, err
	}
	rep.ID, rep.Title = "fig3a", "Ex1: 10-bit + 17-bit — stitching wins"
	return rep, nil
}

// Figure3b — Example Ex2: ORDER BY a 15-bit and a 31-bit column. The
// reckless stitch {R1: 46/[64]} drops to the weak 64-bit bank and must
// lose to P0 = {R1: 15/[16], R2: 31/[32]}.
func Figure3b(cfg Config) (*Report, error) {
	cfg.defaults()
	widths := []int{15, 31}
	plans := []plan.Plan{
		plan.ColumnAtATime(widths),
		{Rounds: []plan.Round{{Width: 46, Bank: 64}}},
	}
	rep, err := measurePlans(cfg, widths, plans, []string{"P0", "P<<31 (stitch-all)"})
	if err != nil {
		return nil, err
	}
	rep.ID, rep.Title = "fig3b", "Ex2: 15-bit + 31-bit — reckless stitching loses"
	return rep, nil
}

// Figure3c — Example Ex4: ORDER BY two 48-bit columns. Splitting into
// THREE 32-bit rounds beats two 64-bit-bank rounds: more rounds, but
// full SIMD parallelism in each.
func Figure3c(cfg Config) (*Report, error) {
	cfg.defaults()
	widths := []int{48, 48}
	plans := []plan.Plan{
		plan.ColumnAtATime(widths),
		{Rounds: []plan.Round{
			{Width: 32, Bank: 32}, {Width: 32, Bank: 32}, {Width: 32, Bank: 32}}},
	}
	rep, err := measurePlans(cfg, widths, plans, []string{"P0 (2x 48/[64])", "P32x3 (3x 32/[32])"})
	if err != nil {
		return nil, err
	}
	rep.ID, rep.Title = "fig3c", "Ex4: 48-bit + 48-bit — more rounds can win"
	return rep, nil
}

// Figure4a — Example Ex3: ORDER BY a 17-bit and a 33-bit column, the
// full bit-shift sweep from P≪33 (stitch-all left) to P≫16 (shift-all
// right). The paper's curve has the optimum at P≪1 = {18/[32], 32/[32]}
// and a hill peaking near P≪10.
func Figure4a(cfg Config) (*Report, error) {
	cfg.defaults()
	widths := []int{17, 33}
	inputs := syntheticInputs(cfg, widths)
	rep := &Report{
		ID:     "fig4a",
		Title:  "Ex3: 17-bit + 33-bit — shifted-bits sweep",
		Header: []string{"plan", "shape", "r1_sort_ms", "r2_sort_ms", "total_ms"},
	}
	for shift := 33; shift >= -16; shift-- {
		w1 := 17 + shift
		w2 := 50 - w1
		if w1 < 1 || w1 > 64 || w2 < 0 {
			continue
		}
		var p plan.Plan
		if w2 == 0 {
			p = plan.FromWidths([]int{w1})
		} else {
			p = plan.FromWidths([]int{w1, w2})
		}
		res, err := mcsort.ExecuteContext(cfg.context(), inputs, p, mcsort.Options{SortParams: paperKernel()})
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			continue
		}
		label := "P0"
		if shift > 0 {
			label = fmt.Sprintf("P<<%d", shift)
		} else if shift < 0 {
			label = fmt.Sprintf("P>>%d", -shift)
		}
		// Round-level sort-time split is not tracked per round in
		// Timings; derive it from a per-round re-run of the stats.
		rep.Rows = append(rep.Rows, []string{
			label, p.String(),
			fmt.Sprintf("%d sorts", res.Rounds[0].NSort),
			roundSorts(res),
			ms(res.Timings.Total()),
		})
	}
	rep.Notes = append(rep.Notes, "optimum expected at P<<1 = {R1: 18/[32], R2: 32/[32]}; stitch-all tails use the weak 64-bit bank")
	return rep, nil
}

func roundSorts(res *mcsort.Result) string {
	if len(res.Rounds) < 2 {
		return "-"
	}
	return fmt.Sprintf("%d sorts", res.Rounds[1].NSort)
}

// Figure4b — the round-2 factors behind the Figure 4a hill: number of
// SIMD sorts, number of groups, and average group size per shift.
func Figure4b(cfg Config) (*Report, error) {
	cfg.defaults()
	widths := []int{17, 33}
	inputs := syntheticInputs(cfg, widths)
	rep := &Report{
		ID:     "fig4b",
		Title:  "Ex3 factors: N_sort / N_group / avg group size per plan",
		Header: []string{"plan", "num_sort(R2)", "num_groups(R1)", "avg_group_size"},
	}
	for _, shift := range []int{32, 16, 15, 13, 11, 10, 2, 1, 0, -1, -10, -16} {
		w1 := 17 + shift
		w2 := 50 - w1
		if w1 < 1 || w1 > 64 || w2 < 1 {
			continue
		}
		p := plan.FromWidths([]int{w1, w2})
		res, err := mcsort.ExecuteContext(cfg.context(), inputs, p, mcsort.Options{SortParams: paperKernel()})
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			continue
		}
		label := "P0"
		if shift > 0 {
			label = fmt.Sprintf("P<<%d", shift)
		} else if shift < 0 {
			label = fmt.Sprintf("P>>%d", -shift)
		}
		rep.Rows = append(rep.Rows, []string{
			label,
			fmt.Sprintf("%d", res.Rounds[1].NSort),
			fmt.Sprintf("%d", res.Rounds[0].NGroup),
			fmt.Sprintf("%.2f", res.Rounds[1].AvgGroupSz),
		})
	}
	return rep, nil
}

// Figure5 — complement-before-stitch for mixed ASC/DESC: the paper's
// worked example (A ASC, B DESC over three tuples x, y, z).
func Figure5(cfg Config) (*Report, error) {
	cfg.defaults()
	inputs := []massage.Input{
		{Codes: []uint64{2, 2, 7}, Width: 3},
		{Codes: []uint64{5, 1, 4}, Width: 3, Desc: true},
	}
	rep := &Report{
		ID:     "fig5",
		Title:  "ORDER BY A ASC, B DESC — complement before stitch",
		Header: []string{"variant", "output oid order", "correct"},
	}
	names := []string{"x", "y", "z"}

	// Correct: the massage layer complements B, so the stitched sort
	// yields x, y, z.
	p := plan.FromWidths([]int{6})
	res, err := mcsort.ExecuteContext(cfg.context(), inputs, p, mcsort.Options{SortParams: paperKernel()})
	if pipeerr.IsCtxErr(err) {
		return nil, err
	}
	if err == nil {
		order := ""
		for _, oid := range res.Perm {
			order += names[oid] + " "
		}
		rep.Rows = append(rep.Rows, []string{"complement+stitch", order, fmt.Sprint(order == "x y z ")})
	}

	// Wrong: stitching without the complement sorts B ascending within
	// ties of A, producing y before x.
	raw := []massage.Input{
		{Codes: inputs[0].Codes, Width: 3},
		{Codes: inputs[1].Codes, Width: 3}, // Desc dropped: the bug
	}
	res, err = mcsort.ExecuteContext(cfg.context(), raw, p, mcsort.Options{SortParams: paperKernel()})
	if pipeerr.IsCtxErr(err) {
		return nil, err
	}
	if err == nil {
		order := ""
		for _, oid := range res.Perm {
			order += names[oid] + " "
		}
		rep.Rows = append(rep.Rows, []string{"stitch w/o complement", order, fmt.Sprint(order == "x y z ")})
	}
	rep.Notes = append(rep.Notes, "expected: complemented variant returns x y z; raw stitch returns y x z (Figure 5b's wrong result)")
	return rep, nil
}
