// Command mcsbench regenerates the paper's tables and figures: it runs
// any experiment by id and prints the same rows/series the paper
// reports.
//
//	mcsbench -exp fig3a                 # one experiment
//	mcsbench -exp all -quick            # the whole evaluation, reduced
//	mcsbench -exp fig8 -tablerows 200000
//	mcsbench -exp fig8 -metrics json    # obs metrics snapshot on stdout
//	mcsbench -exp all -trace            # per-experiment trace on stderr
//	mcsbench -exp all -debug-addr :6060 # live pprof + expvar
//
// Experiment ids: fig1, fig3a, fig3b, fig3c, fig4a, fig4b, fig5, fig7,
// tab1, tab2, fig8, fig9, fig10, fig12, topk.
//
// Observability (docs/observability.md): -trace and -metrics enable the
// internal/obs subsystem, which records per-phase sort timings, massage
// op counts, plan-search statistics, and the engine's
// predicted-vs-measured cost per query. -debug-addr serves
// net/http/pprof and expvar (the obs snapshot is published as the
// "obs" expvar at /debug/vars).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id, or 'all'")
		rows      = flag.Int("rows", 1<<18, "synthetic rows N (paper: 2^24)")
		tableRows = flag.Int("tablerows", 60_000, "WideTable rows per workload")
		seed      = flag.Int64("seed", 1, "generator seed")
		quick     = flag.Bool("quick", false, "reduced populations and scales")
		workers   = flag.Int("workers", 1, "worker goroutines for engine passes (plan measurements stay sequential)")
		limit     = flag.Int("limit", 0, "override the topk experiment's K sweep with a single K (0 = default sweep)")
		calPath   = flag.String("calibration", "", "load a saved calibration profile instead of calibrating")
		metrics   = flag.String("metrics", "", "emit an obs metrics snapshot on stdout at exit: json | text")
		trace     = flag.Bool("trace", false, "print the cumulative obs trace to stderr after each experiment")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
		timeout   = flag.Duration("timeout", 0, "cancel the whole run after this duration (0 = no limit); queue-wait vs execution expiries are split under pipeline.cancellations_* in -metrics")
	)
	flag.Parse()
	ctx, cancel := cliutil.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if err := cliutil.ValidateMetricsMode(*metrics); err != nil {
		fmt.Fprintf(os.Stderr, "mcsbench: %v\n", err)
		os.Exit(2)
	}
	if *metrics != "" || *trace || *debugAddr != "" {
		obs.Enable()
	}
	if *debugAddr != "" {
		obs.PublishExpvar("obs")
		// Touch expvar so its /debug/vars handler is registered even if
		// the import graph changes.
		_ = expvar.Get("obs")
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mcsbench: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "mcsbench: pprof at http://%s/debug/pprof, metrics at /debug/vars\n", *debugAddr)
	}

	cfg := experiments.Config{
		Rows:      *rows,
		TableRows: *tableRows,
		Seed:      *seed,
		Quick:     *quick,
		Workers:   *workers,
		Limit:     *limit,
	}
	if *calPath != "" {
		m, pm, err := experiments.LoadProfile(*calPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsbench: %v\n", err)
			os.Exit(1)
		}
		cfg.Model, cfg.Paper = m, pm
	} else {
		fmt.Fprintln(os.Stderr, "mcsbench: calibrating the cost model (a few seconds; use -calibration to reuse a profile)...")
		start := time.Now()
		m, err := experiments.Calibrate(experiments.CalOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsbench: calibrate: %v\n", err)
			os.Exit(1)
		}
		pm, err := experiments.CalibratePaper(experiments.CalOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsbench: calibrate: %v\n", err)
			os.Exit(1)
		}
		cfg.Model, cfg.Paper = m, pm
		fmt.Fprintf(os.Stderr, "mcsbench: calibration done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.All
	}
	for _, id := range ids {
		// Admission point: a deadline that expired before this experiment
		// starts is a queue-wait timeout — fail fast and typed, never
		// start (or hang in) doomed pipeline work.
		if err := cliutil.CheckAdmission(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "mcsbench: %s not started: %v\n", id, err)
			dumpMetrics(*metrics)
			os.Exit(1)
		}
		start := time.Now()
		rep, err := experiments.RunContext(ctx, id, cfg)
		if err != nil {
			if pipeerr.IsCtxErr(err) && !errors.Is(err, pipeerr.ErrQueueTimeout) {
				// Mid-experiment expiry: an execution timeout, counted
				// separately from queue-wait expiries in the metrics.
				fmt.Fprintf(os.Stderr, "mcsbench: %s cancelled during execution: %v\n", id, err)
			} else {
				fmt.Fprintf(os.Stderr, "mcsbench: %v\n", err)
			}
			dumpMetrics(*metrics)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		if *trace {
			fmt.Fprintf(os.Stderr, "-- obs trace after %s (cumulative) --\n", id)
			if err := obs.WriteText(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "mcsbench: obs trace: %v\n", err)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	dumpMetrics(*metrics)
}

// dumpMetrics emits the obs snapshot, which includes the robustness
// counters (pipeline.cancellations with its queue-wait/execution
// split, pipeline.recovered_panics) when a timeout or contained fault
// occurred during the run.
func dumpMetrics(mode string) {
	if err := cliutil.DumpMetrics(os.Stdout, mode); err != nil {
		fmt.Fprintf(os.Stderr, "mcsbench: metrics: %v\n", err)
		os.Exit(1)
	}
}
