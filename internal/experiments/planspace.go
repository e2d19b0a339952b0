package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/massage"
	"repro/internal/pipeerr"
	"repro/internal/planner"
	"repro/internal/workloads"
)

// Plan-space experiments: the oracle A_i of Section 6.1 — execute a
// population of feasible plans over identical sort inputs, rank the
// searchers' picks by measured time, and score the cost model's MRE.

// populationBudget bounds how many plans are *executed*; beyond it the
// population is sampled uniformly (documented substitution: the paper
// spent weeks on full exhaustion).
func populationBudget(cfg Config) int {
	if cfg.Quick {
		return 48
	}
	return 256
}

// queryPlanSpace prepares a query's sort inputs and the engine's search
// over their statistics, priced by the paper kernel's model.
func queryPlanSpace(cfg Config, item workloads.Item) ([]massage.Input, *planner.Search, error) {
	inputs, err := engine.MaterializeSortInputsContext(cfg.context(), item.Table, item.Query, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	if len(inputs) == 0 || len(inputs[0].Codes) == 0 {
		return nil, nil, fmt.Errorf("%s: no rows", item.ID)
	}
	widths := make([]int, len(inputs))
	cols := make([][]uint64, len(inputs))
	for i, in := range inputs {
		widths[i] = in.Width
		cols[i] = in.Codes
	}
	st := costmodel.CollectStats(cols, widths)
	model, err := cfg.model()
	if err != nil {
		return nil, nil, err
	}
	return inputs, engine.NewSearch(item.Query, st, engine.Options{Model: model}), nil
}

// executePlan measures the wall time of the engine's full sort (no
// LIMIT) of the inputs under one candidate, with the paper kernel.
func executePlan(cfg Config, inputs []massage.Input, cand candidate) (time.Duration, error) {
	choice := planner.Choice{ColOrder: cand.ColOrder, Plan: cand.Plan}
	res, _, err := engine.SortColumns(cfg.context(), engine.Query{}, inputs, choice, engine.Options{SortParams: paperKernel()})
	if err != nil {
		return 0, err
	}
	return res.Timings.Total(), nil
}

// Figure7 — TPC-H Q16's plan space: measured time and model estimate for
// every feasible plan (or a sample), with the ROGA and RRS picks marked.
func Figure7(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "fig7",
		Title:  "TPC-H Q16: actual vs estimated cost over the feasible plan space",
		Header: []string{"rank_by_actual", "plan", "order", "actual_ms", "est_ms", "mark"},
	}
	items, err := allItems(cfg, 1)
	if err != nil {
		return nil, err
	}
	var q16 workloads.Item
	for _, item := range items {
		if item.ID == "tpch.q16" {
			q16 = item
		}
	}
	inputs, search, err := queryPlanSpace(cfg, q16)
	if err != nil {
		if pipeerr.IsCtxErr(err) {
			return nil, err
		}
		rep.Notes = append(rep.Notes, err.Error())
		return rep, nil
	}
	budget := populationBudget(cfg)
	pop, exact := enumerate(search, enumerateOptions{Budget: budget, Seed: cfg.Seed})

	rogaPick, err := roga(cfg.context(), search)
	if err != nil {
		return nil, err
	}
	rrsPick := rrs(search, cfg.Seed)
	pop = ensureIncluded(pop, rogaPick, rrsPick)

	type scored struct {
		cand   candidate
		actual time.Duration
		est    float64
	}
	var rows []scored
	estimate := estimator(search)
	for _, cand := range pop {
		actual, err := executePlan(cfg, inputs, cand)
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			continue
		}
		rows = append(rows, scored{cand, actual, estimate(cand.ColOrder, cand.Plan)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].actual < rows[j].actual })
	maxShown := 30
	for i, r := range rows {
		mark := ""
		if sameCand(r.cand, rogaPick) {
			mark += "ROGA "
		}
		if sameCand(r.cand, rrsPick) {
			mark += "RRS"
		}
		if i >= maxShown && mark == "" {
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d/%d", i+1, len(rows)),
			r.cand.Plan.String(),
			fmt.Sprintf("%v", r.cand.ColOrder),
			ms(r.actual),
			fmt.Sprintf("%.2f", r.est/1e6),
			mark,
		})
	}
	note := "sampled population"
	if exact {
		note = "exhaustive population"
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%s of %d plans; only the best %d and marked plans are listed", note, len(rows), maxShown),
		"paper: both ROGA and RRS find the actual optimal plan for Q16")
	return rep, nil
}

func sameCand(a candidate, c planner.Choice) bool {
	return a.Plan.Equal(c.Plan) && slices.Equal(a.ColOrder, c.ColOrder)
}

func ensureIncluded(pop []candidate, picks ...planner.Choice) []candidate {
	for _, p := range picks {
		if !slices.ContainsFunc(pop, func(c candidate) bool { return sameCand(c, p) }) {
			pop = append(pop, candidate{ColOrder: p.ColOrder, Plan: p.Plan})
		}
	}
	return pop
}

// Table1 — plan quality (mean/best/worst rank of ROGA and RRS picks by
// measured time within the executed population) and cost-model MRE, per
// workload.
func Table1(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "tab1",
		Title:  "Cost model and plan quality (rank by measured time; MRE)",
		Header: []string{"workload", "roga_mean_rank", "roga_best", "roga_worst", "rrs_mean_rank", "rrs_best", "rrs_worst", "mre"},
	}
	tpch, tpchSkew, tpcds, airline, err := buildWorkloads(cfg, 1)
	if err != nil {
		return nil, err
	}
	groups := []struct {
		name  string
		items []workloads.Item
	}{
		{"TPC-H", tpch},
		{"TPC-H skew", tpchSkew},
		{"TPC-DS", tpcds},
		{"Real", airline},
	}
	budget := populationBudget(cfg)
	for _, g := range groups {
		var rogaRanks, rrsRanks []int
		var relErrs []float64
		for _, item := range g.items {
			if item.ID == "tpch.q13" || item.ID == "tpch.q13.skew" {
				continue
			}
			inputs, search, err := queryPlanSpace(cfg, item)
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				continue
			}
			pop, _ := enumerate(search, enumerateOptions{Budget: budget, Seed: cfg.Seed})
			rogaPick, err := roga(cfg.context(), search)
			if err != nil {
				return nil, err
			}
			rrsPick := rrs(search, cfg.Seed)
			pop = ensureIncluded(pop, rogaPick, rrsPick)

			actual := make(map[int]time.Duration, len(pop))
			estimate := estimator(search)
			for i, cand := range pop {
				t, err := executePlan(cfg, inputs, cand)
				if err != nil {
					if pipeerr.IsCtxErr(err) {
						return nil, err
					}
					continue
				}
				actual[i] = t
				est := estimate(cand.ColOrder, cand.Plan)
				a := float64(t.Nanoseconds())
				if a > 0 {
					relErrs = append(relErrs, math.Abs(a-est)/a)
				}
			}
			rank := func(pick planner.Choice) int {
				var pickT time.Duration = -1
				for i, cand := range pop {
					if sameCand(cand, pick) {
						pickT = actual[i]
					}
				}
				if pickT < 0 {
					return len(pop)
				}
				r := 1
				for _, t := range actual {
					if t < pickT {
						r++
					}
				}
				return r
			}
			rogaRanks = append(rogaRanks, rank(rogaPick))
			rrsRanks = append(rrsRanks, rank(rrsPick))
		}
		row := append(append([]string{g.name}, rankRow(rogaRanks)...), rankRow(rrsRanks)...)
		rep.Rows = append(rep.Rows, append(row, fmt.Sprintf("%.2f", mean(relErrs))))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("population budget %d plans/query (paper: full exhaustion, weeks of compute)", budget),
		"paper: ROGA mean rank 4.8-8 vs RRS 43-111; MRE 0.36-0.57")
	return rep, nil
}

func mean[T int | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s T
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// rankRow formats the mean, best and worst of ranks; all 0 when empty.
func rankRow(ranks []int) []string {
	best, worst := 0, 0
	if len(ranks) > 0 {
		best, worst = slices.Min(ranks), slices.Max(ranks)
	}
	return []string{fmt.Sprintf("%.1f", mean(ranks)), fmt.Sprint(best), fmt.Sprint(worst)}
}

// Figure12 — sensitivity to the time threshold ρ: search time, chosen
// plan's estimated cost, and its measured time, for representative
// queries under ρ from 0.01% to 10% and N/S (no threshold).
func Figure12(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "fig12",
		Title:  "Plan search under varying time threshold rho",
		Header: []string{"query", "rho", "search_ms", "est_ms", "actual_mcs_ms", "plan"},
	}
	items, err := allItems(cfg, 1)
	if err != nil {
		return nil, err
	}
	var picks []workloads.Item
	for _, item := range items {
		switch item.ID {
		case "tpch.q16", "tpcds.q67", "real.q3":
			picks = append(picks, item)
		}
	}
	rhos := []struct {
		label string
		value float64
	}{
		{"0.01%", 0.0001}, {"0.1%", 0.001}, {"1%", 0.01}, {"10%", 0.1}, {"N/S", -1},
	}
	for _, item := range picks {
		inputs, search, err := queryPlanSpace(cfg, item)
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			continue
		}
		for _, rho := range rhos {
			if rho.value < 0 && cfg.Quick {
				continue // unbounded search on wide clauses is slow
			}
			search.Rho = rho.value
			start := time.Now()
			pick, err := roga(cfg.context(), search)
			if err != nil {
				return nil, err
			}
			searchTime := time.Since(start)
			actual, err := executePlan(cfg, inputs, candidate{ColOrder: pick.ColOrder, Plan: pick.Plan})
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				continue
			}
			rep.Rows = append(rep.Rows, []string{
				item.ID, rho.label, ms(searchTime),
				fmt.Sprintf("%.2f", pick.Est/1e6), ms(actual), pick.Plan.String(),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: rho = 0.1% suffices — the plan quality is insensitive to rho unless it is extremely stringent")
	return rep, nil
}
