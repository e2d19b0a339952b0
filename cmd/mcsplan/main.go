// Command mcsplan explains a code-massage plan search for an ad-hoc
// multi-column sort: given column widths (and optional distinct counts),
// it prints the baseline plan and the search's pick with its estimate.
// The search is mcsd's, engine.NewSearch: costmodel.Builtin(), the model
// mcsd plans with when it is not handed a calibration, no wall-clock
// threshold unless -rho sets one, and the daemon's default counted
// budget — so the pick is the plan mcsd would choose for the same
// statistics.
//
//	mcsplan -widths 12,17
//	mcsplan -widths 17,33 -distinct 8192,8192 -rows 16777216
//	mcsplan -widths 5,8,6 -clause groupby
//	mcsplan -widths 12,17,20 -clause partitionby -limit 100
//	mcsplan -widths 12,17 -execute -workers 4   # run the search pick too
//
// Under -clause partitionby the last width is the window's ORDER BY
// column, which stays last, and -limit/-offset cut ranked rows; under
// the other clauses they cut groups. The search prices that cut as
// mcsd does, and -execute runs it with the engine's sort
// (engine.SortColumns).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/massage"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/server"
)

func main() {
	var (
		widthsFlag   = flag.String("widths", "", "comma-separated column widths in bits (required)")
		distinctFlag = flag.String("distinct", "", "comma-separated distinct counts (default 2^13 per column)")
		rows         = flag.Int("rows", 1<<20, "row count N")
		clause       = flag.String("clause", "orderby", "orderby | groupby | partitionby (the last width is the window's ORDER BY column)")
		rho          = flag.Float64("rho", -1, "search time threshold (negative = unbounded, as mcsd runs)")
		seed         = flag.Int64("seed", 1, "generator seed")
		metrics      = flag.String("metrics", "", "emit an obs metrics snapshot (search counters) at exit: json | text")
		execute      = flag.Bool("execute", false, "generate -rows rows and execute the search pick")
		workers      = flag.Int("workers", 1, "worker goroutines for -execute (output is identical for any value)")
		limit        = flag.Int("limit", 0, "LIMIT: search and -execute the truncated sort of the first limit+offset ranked rows (partitionby) or groups (0 = full output)")
		offset       = flag.Int("offset", 0, "with -limit: leading rows or groups to skip before the limit window")
		timeout      = flag.Duration("timeout", 0, "cancel the search and execution after this duration (0 = no limit); queue-wait vs execution expiries are split under pipeline.cancellations_* in -metrics")
	)
	flag.Parse()
	ctx, cancel := cliutil.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := cliutil.ValidateMetricsMode(*metrics); err != nil {
		fmt.Fprintf(os.Stderr, "mcsplan: %v\n", err)
		os.Exit(2)
	}
	if *metrics != "" {
		obs.Enable()
	}

	widths, err := parseInts(*widthsFlag)
	if err != nil || len(widths) == 0 {
		fmt.Fprintln(os.Stderr, "mcsplan: -widths is required, e.g. -widths 12,17")
		os.Exit(2)
	}
	distinct := make([]int, len(widths))
	for i := range distinct {
		distinct[i] = 1 << 13
	}
	if *distinctFlag != "" {
		d, err := parseInts(*distinctFlag)
		if err != nil || len(d) != len(widths) {
			fmt.Fprintln(os.Stderr, "mcsplan: -distinct must match -widths")
			os.Exit(2)
		}
		distinct = d
	}
	var kind planner.ClauseKind
	switch strings.ToLower(*clause) {
	case "orderby":
		kind = planner.OrderBy
	case "groupby":
		kind = planner.GroupBy
	case "partitionby":
		kind = planner.PartitionBy
	default:
		fmt.Fprintf(os.Stderr, "mcsplan: unknown clause %q\n", *clause)
		os.Exit(2)
	}

	// Sample data with the requested shape to build the statistics the
	// cost model consumes (prefix-distinct profiles).
	rng := rand.New(rand.NewSource(*seed))
	sample := *rows
	if sample > 1<<16 {
		sample = 1 << 16
	}
	cols := make([][]uint64, len(widths))
	for i, w := range widths {
		cols[i] = datagen.Uniform(rng, sample, w, distinct[i]).Codes
	}
	st := costmodel.CollectStats(cols, widths)
	st.N = *rows

	if *limit < 0 || *offset < 0 {
		fmt.Fprintln(os.Stderr, "mcsplan: -limit and -offset must be non-negative")
		os.Exit(2)
	}
	// The last width is a window's ORDER BY column; -limit 0 is no LIMIT.
	q := engine.Query{Kind: kind}
	if kind == planner.PartitionBy {
		q.Window = &engine.Window{}
	}
	opts := engine.Options{Rho: *rho, MaxPlans: server.DefaultMaxPlans, Workers: *workers, Offset: *offset}
	if *limit > 0 {
		opts.Limit = limit
	}
	s := engine.NewSearch(q, st, opts)
	w := st.TotalWidth()
	fmt.Printf("columns: widths=%v distinct=%v rows=%d (W=%d bits, clause=%s)\n",
		widths, distinct, *rows, w, *clause)

	// Admission point: a -timeout that already expired (sampling the
	// statistics ate the budget, or the deadline was pre-expired) is a
	// queue-wait timeout — fail fast and typed rather than entering the
	// search.
	if err := cliutil.CheckAdmission(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mcsplan: plan search not started: %v\n", err)
		dumpMetrics(*metrics)
		os.Exit(1)
	}
	base := s.Baseline()
	fmt.Printf("P0 (column-at-a-time): %-40s est %8.2f ms\n", base.Plan, base.Est/1e6)
	pick, err := planner.ROGAContext(ctx, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsplan: plan search: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("search pick:           %-40s est %8.2f ms (order %v, %.2fx vs P0)\n",
		pick.Plan, pick.Est/1e6, pick.ColOrder, base.Est/pick.Est)

	if *execute {
		inputs := make([]massage.Input, len(widths))
		for _, c := range pick.ColOrder {
			inputs[c] = massage.Input{
				Codes: datagen.Uniform(rng, *rows, widths[c], distinct[c]).Codes,
				Width: widths[c],
			}
		}
		// The engine's sort, cut where the search priced it.
		res, _, err := engine.SortColumns(ctx, q, inputs, pick, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsplan: execute: %v\n", err)
			dumpMetrics(*metrics)
			os.Exit(1)
		}
		t := res.Timings
		fmt.Printf("executed (workers=%d): total %8.2f ms  (massage %.2f, sort %.2f, lookup %.2f, scan %.2f), %d groups\n",
			*workers, float64(t.Total().Nanoseconds())/1e6,
			float64(t.Massage.Nanoseconds())/1e6, float64(t.Sort.Nanoseconds())/1e6,
			float64(t.Lookup.Nanoseconds())/1e6, float64(t.Scan.Nanoseconds())/1e6,
			len(res.Groups)-1)
		if *limit > 0 {
			unit, n := "groups", len(res.Groups)-1
			if s.Stats.LimitRows > 0 {
				unit, n = "rows", len(res.Perm)
			}
			fmt.Printf("top-K: limit=%d offset=%d materialized %d of %d rows, returned %d %s\n",
				*limit, *offset, len(res.Perm), *rows, max(0, min(n, *offset+*limit)-*offset), unit)
		}
	}

	dumpMetrics(*metrics)
}

// dumpMetrics emits the obs snapshot, which includes the robustness
// counters (pipeline.cancellations with its queue-wait/execution
// split, pipeline.recovered_panics) when a timeout or contained fault
// occurred during the run.
func dumpMetrics(mode string) {
	if mode != "" {
		fmt.Println()
	}
	if err := cliutil.DumpMetrics(os.Stdout, mode); err != nil {
		fmt.Fprintf(os.Stderr, "mcsplan: metrics: %v\n", err)
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
