package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/pipeerr"
	"repro/internal/workloads"
)

// Figure10 — throughput (million tuples per second through the
// multi-column sort) as the worker count grows, for representative
// queries with massaging enabled.
//
// The paper pins one thread per physical core on 4- and 10-core CPUs
// and observes linear scaling. This container exposes the code path —
// parallel massaging, the paper kernel's parallel first-round sort
// (chunk sorts, then the rank-split chunk merge), and
// group-parallel later rounds — but runtime.NumCPU() may be 1, in which
// case measured throughput is flat; see EXPERIMENTS.md.
func Figure10(cfg Config) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "fig10",
		Title:  "Throughput vs worker count (massaging on)",
		Header: []string{"query", "workers", "rows", "mcs_ms", "mtuples_per_s"},
	}
	model, err := cfg.model()
	if err != nil {
		return nil, err
	}
	items, err := allItems(cfg, 1)
	if err != nil {
		return nil, err
	}
	var picks []workloads.Item
	for _, item := range items {
		switch item.ID {
		case "tpch.q1", "tpch.q18", "tpcds.q67", "real.q3":
			picks = append(picks, item)
		}
	}
	workerCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		workerCounts = []int{1, 4}
	}
	for _, item := range picks {
		for _, w := range workerCounts {
			res, err := engine.RunContext(cfg.context(), item.Table, item.Query,
				engine.Options{Massaging: true, Model: model, Workers: w, SortParams: paperKernel()})
			if err != nil {
				if pipeerr.IsCtxErr(err) {
					return nil, err
				}
				continue
			}
			mcsT := res.Timing.MCS.Total()
			tput := float64(res.Rows) / (float64(mcsT.Nanoseconds()) / 1e9) / 1e6
			rep.Rows = append(rep.Rows, []string{
				item.ID, fmt.Sprintf("%d", w), fmt.Sprintf("%d", res.Rows),
				ms(mcsT), fmt.Sprintf("%.2f", tput),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("runtime.NumCPU()=%d on this machine; with one physical core the scaling is necessarily flat (paper: linear to 10 cores)", runtime.NumCPU()),
		fmt.Sprintf("measured %s", time.Now().Format(time.RFC3339)))
	return rep, nil
}
