package experiments

import (
	"fmt"
	"time"

	"repro/internal/mcsort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
)

// TopK is the LIMIT-aware execution sweep (not a paper figure — it
// covers the ROADMAP's serving extension): the same N-row two-column
// sort executed in full and with mcsort.Options.LimitRows at several K,
// reporting the truncated time, the full-sort time, and the speedup.
// Correctness is asserted inline: the truncated permutation must equal
// the corresponding prefix of the full sort's permutation, which is the
// same full-sort-then-slice oracle the truncation battery uses.
func TopK(cfg Config) (*Report, error) {
	cfg.defaults()
	widths := []int{14, 14}
	inputs := syntheticInputs(cfg, widths)
	p := plan.FromWidths([]int{28})

	limits := []int{1, 100, 10_000}
	if cfg.Limit > 0 {
		limits = []int{cfg.Limit}
	}
	reps := 3
	if cfg.Quick {
		reps = 1
	}

	run := func(limit int) (time.Duration, []uint32, error) {
		best := time.Duration(0)
		var perm []uint32
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			res, err := mcsort.ExecuteContext(cfg.context(), inputs, p,
				mcsort.Options{Workers: cfg.Workers, LimitRows: limit, SortParams: paperKernel()})
			if err != nil {
				return 0, nil, err
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
			perm = res.Perm
		}
		return best, perm, nil
	}

	full, fullPerm, err := run(0)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "topk",
		Title:  "LIMIT-aware execution: top-K sort vs full sort",
		Header: []string{"limit", "topk_ms", "full_ms", "speedup", "rows_out"},
	}
	for _, k := range limits {
		if k >= cfg.Rows {
			continue
		}
		d, perm, err := run(k)
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", k), "ERR", err.Error()})
			continue
		}
		if len(perm) != k {
			return nil, fmt.Errorf("topk: limit=%d produced %d rows", k, len(perm))
		}
		for i := range perm {
			if perm[i] != fullPerm[i] {
				return nil, fmt.Errorf("topk: limit=%d diverges from the full sort at row %d", k, i)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k), ms(d), ms(full), speedup(full, d),
			fmt.Sprintf("%d", len(perm)),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("N=%d rows, plan %s, workers=%d; every top-K permutation verified against the full sort's prefix", cfg.Rows, p, cfg.Workers))
	return rep, nil
}
