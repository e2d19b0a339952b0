package experiments

import (
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pipeerr"
	"repro/internal/workloads"
)

// buildWorkloads materializes the four evaluation datasets at the
// configured row count (and TPC-H additionally in a zipf-skewed flavor).
func buildWorkloads(cfg Config, sf int) (tpch, tpchSkew, tpcds []workloads.Item, airline []workloads.Item, err error) {
	t1, err := datagen.TPCH(datagen.TPCHConfig{SF: sf, Rows: cfg.TableRows, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t2, err := datagen.TPCH(datagen.TPCHConfig{SF: sf, Rows: cfg.TableRows, Skew: true, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t3, err := datagen.TPCDS(datagen.TPCDSConfig{SF: sf, Rows: cfg.TableRows, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ticket, err := datagen.AirlineTicket(datagen.AirlineConfig{Rows: cfg.TableRows, Seed: cfg.Seed + 3})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	market, err := datagen.AirlineMarket(datagen.AirlineConfig{Rows: cfg.TableRows, Seed: cfg.Seed + 3})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return workloads.TPCHQueries(t1, ""),
		workloads.TPCHQueries(t2, ".skew"),
		workloads.TPCDSQueries(t3),
		workloads.AirlineQueries(ticket, market),
		nil
}

// allItems flattens the full 27-query suite.
func allItems(cfg Config, sf int) ([]workloads.Item, error) {
	a, b, c, d, err := buildWorkloads(cfg, sf)
	if err != nil {
		return nil, err
	}
	return append(append(append(a, b...), c...), d...), nil
}

// Figure1 — the motivation: per-query time share of multi-column
// sorting versus everything else (scan + lookup + aggregation +
// single-column sorting), with massaging OFF, for the TPC-H queries.
func Figure1(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "fig1",
		Title:  "TPC-H time breakdown without code massaging",
		Header: []string{"query", "mcs_ms", "rest_ms", "mcs_share"},
	}
	items, _, _, _, err := buildWorkloads(cfg, 1)
	if err != nil {
		return nil, err
	}
	for _, item := range items {
		if item.ID == "tpch.q13" {
			// Q13's multi-column sort runs on the tiny derived table.
			res, err := workloads.RunQ13Context(cfg.context(), item.Table, false, engine.Options{SortParams: paperKernel()})
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				rep.Rows = append(rep.Rows, []string{item.ID, "ERR", err.Error(), ""})
				continue
			}
			mcsT := res.MCS.Total()
			rest := res.StageOne.Total()
			rep.Rows = append(rep.Rows, []string{
				item.ID, ms(mcsT), ms(rest),
				pct(float64(mcsT) / float64(mcsT+rest)),
			})
			continue
		}
		res, err := engine.RunContext(cfg.context(), item.Table, item.Query, engine.Options{Massaging: false, SortParams: paperKernel()})
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{item.ID, "ERR", err.Error(), ""})
			continue
		}
		mcsT := res.Timing.MCS.Total()
		rest := res.Timing.NonMCS()
		rep.Rows = append(rep.Rows, []string{
			item.ID, ms(mcsT), ms(rest),
			pct(float64(mcsT) / float64(mcsT+rest)),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: 60-92% of time is multi-column sorting, except Q13 (dominated by its single-column GROUP BY)")
	return rep, nil
}

// reps is the measurement repetition count: reported times are the best
// of `reps` runs, which suppresses scheduler noise on small queries.
func (c *Config) reps() int {
	if c.Quick {
		return 1
	}
	return 3
}

// bestRun executes the query `reps` times and returns the result with
// the smallest MCS time.
func bestRun(cfg Config, item workloads.Item, opts engine.Options, reps int) (*engine.Result, error) {
	var best *engine.Result
	for i := 0; i < reps; i++ {
		res, err := engine.RunContext(cfg.context(), item.Table, item.Query, opts)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Timing.MCS.Total() < best.Timing.MCS.Total() {
			best = res
		}
	}
	return best, nil
}

// Figure8 — multi-column sorting speedup from code massaging for all 27
// queries, plus the plan the optimizer picked.
func Figure8(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "fig8",
		Title:  "Multi-column sorting speedup with code massaging",
		Header: []string{"query", "mcs_off_ms", "mcs_on_ms", "speedup", "plan"},
	}
	model, err := cfg.model()
	if err != nil {
		return nil, err
	}
	reps := cfg.reps()
	items, err := allItems(cfg, 1)
	if err != nil {
		return nil, err
	}
	for _, item := range items {
		if item.ID == "tpch.q13" || item.ID == "tpch.q13.skew" {
			off, err1 := workloads.RunQ13Context(cfg.context(), item.Table, false, engine.Options{SortParams: paperKernel()})
			on, err2 := workloads.RunQ13Context(cfg.context(), item.Table, true, engine.Options{SortParams: paperKernel()})
			if pipeerr.IsCtxErr(err1) || pipeerr.IsCtxErr(err2) {
				return nil, cfg.context().Err()
			}
			if err1 != nil || err2 != nil {
				continue
			}
			rep.Rows = append(rep.Rows, []string{
				item.ID, ms(off.MCS.Total()), ms(on.MCS.Total()),
				speedup(off.MCS.Total(), on.MCS.Total()),
				"stitch-all (derived table)",
			})
			continue
		}
		off, err := bestRun(cfg, item, engine.Options{Massaging: false, SortParams: paperKernel()}, reps)
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{item.ID, "ERR", err.Error(), "", ""})
			continue
		}
		on, err := bestRun(cfg, item, engine.Options{Massaging: true, Model: model, SortParams: paperKernel()}, reps)
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{item.ID, "ERR", err.Error(), "", ""})
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			item.ID,
			ms(off.Timing.MCS.Total()),
			ms(on.Timing.MCS.Total()),
			speedup(off.Timing.MCS.Total(), on.Timing.MCS.Total()),
			on.Plan.String(),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("best of %d runs per measurement", reps),
		"paper: 1.8x (real q4) to 5.5x (TPC-H q2)")
	return rep, nil
}

// Figure9 — end-to-end query times at scales 1, 5 and 10 with massaging
// on and off. Scale changes both the domains (key widths, as with real
// dbgen) and the row count.
func Figure9(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "fig9",
		Title:  "Query execution time across scale factors",
		Header: []string{"query", "sf", "rows", "off_ms", "on_ms", "speedup"},
	}
	model, err := cfg.model()
	if err != nil {
		return nil, err
	}
	baseRows := cfg.TableRows
	sfs := []int{1, 5, 10}
	if cfg.Quick {
		sfs = []int{1, 5}
	}
	for _, sf := range sfs {
		sub := cfg
		sub.TableRows = baseRows * sf
		// A representative slice per workload, as the paper presents.
		items, err := allItems(sub, sf)
		if err != nil {
			return nil, err
		}
		var picks []workloads.Item
		for _, item := range items {
			switch item.ID {
			case "tpch.q1", "tpch.q3", "tpch.q18",
				"tpch.q2.skew", "tpch.q10.skew",
				"tpcds.q67", "real.q3":
				picks = append(picks, item)
			}
		}
		for _, item := range picks {
			off, err := bestRun(cfg, item, engine.Options{Massaging: false, SortParams: paperKernel()}, cfg.reps())
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				continue
			}
			on, err := bestRun(cfg, item, engine.Options{Massaging: true, Model: model, SortParams: paperKernel()}, cfg.reps())
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				continue
			}
			rep.Rows = append(rep.Rows, []string{
				item.ID, fmt.Sprintf("%d", sf), fmt.Sprintf("%d", sub.TableRows),
				ms(off.Timing.Total()), ms(on.Timing.Total()),
				speedup(off.Timing.Total(), on.Timing.Total()),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: up to 4.7x (TPC-H/TPC-H-skew q18), 4x (TPC-DS q67), 3.2x (real q3); Q13-like queries gain little")
	return rep, nil
}

// Table2 — plan-search time: ROGA's wall time per query next to the
// multi-column sorting time it optimizes (the search must be negligible).
func Table2(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "tab2",
		Title:  "ROGA plan-search time vs multi-column sorting time",
		Header: []string{"query", "search_ms", "mcs_ms", "search_share"},
	}
	model, err := cfg.model()
	if err != nil {
		return nil, err
	}
	items, err := allItems(cfg, 1)
	if err != nil {
		return nil, err
	}
	for _, item := range items {
		if item.ID == "tpch.q13" || item.ID == "tpch.q13.skew" {
			continue // no search: derived-table stitch
		}
		res, err := engine.RunContext(cfg.context(), item.Table, item.Query,
			engine.Options{Massaging: true, Model: model, SortParams: paperKernel()})
		if err != nil {
			if pipeerr.IsCtxErr(err) {
				return nil, err
			}
			continue
		}
		mcsT := res.Timing.MCS.Total()
		share := float64(res.Timing.PlanSearch) / float64(res.Timing.PlanSearch+mcsT)
		rep.Rows = append(rep.Rows, []string{
			item.ID, ms(res.Timing.PlanSearch), ms(mcsT), pct(share),
		})
	}
	rep.Notes = append(rep.Notes,
		"search time includes statistics sampling; the rho threshold (0.1%) bounds enumeration",
		fmt.Sprintf("generated at %s", time.Now().Format(time.RFC3339)))
	return rep, nil
}
