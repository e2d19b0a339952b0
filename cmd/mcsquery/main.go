// Command mcsquery is the retrying mcsd client CLI: it drives one
// query through internal/client — jittered exponential backoff on
// retryable failures (the server's typed verdict), per-request
// deadlines, and a consecutive-failure circuit breaker — and prints
// the result as JSON. It is the command-line face of the PR 8
// fault-tolerance contract (docs/robustness.md): run it against a
// chaos-armed mcsd and it keeps answering.
//
//	mcsquery -addr http://localhost:8080 -table tpch_wide \
//	  -kind orderby -sort l_returnflag,l_linestatus -workers 4
//	mcsquery -addr http://localhost:8080 -table tpch_wide \
//	  -kind groupby -sort l_returnflag -agg count:l_quantity
//	mcsquery -addr http://localhost:8080 -table tpch_wide \
//	  -kind orderby -sort l_shipdate:desc -retries 8 -seed 0xC0FFEE
//
// -request sends a wire QueryRequest as it is, for what the clause
// flags cannot say (filters, order_by_agg, timeout_ms); it excludes
// every clause flag:
//
//	mcsquery -full -request '{"table":"tpch_wide","kind":"groupby",
//	  "sort_cols":[{"name":"p_brand"}],"agg":{"kind":"count"},"order_by_agg":true}'
//
// Exit status: 0 on success, 1 on a non-retryable or
// retries-exhausted failure (the typed kind and retryable verdict are
// printed to stderr).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "mcsd base URL")
		tbl      = flag.String("table", "tpch_wide", "table to query")
		kind     = flag.String("kind", "orderby", "clause kind: orderby | groupby | partitionby")
		sortCols = flag.String("sort", "", "comma-separated sort columns, each optionally :desc (e.g. l_shipdate:desc,l_orderkey)")
		agg      = flag.String("agg", "", "aggregate as kind:col (e.g. count:l_quantity, sum:l_extendedprice)")
		window   = flag.String("window", "", "window order column for partitionby, optionally :desc")
		workers  = flag.Int("workers", 0, "worker count (0 = server default)")
		maxBytes = flag.Int64("max-bytes", 0, "per-query byte budget (0 = server default)")
		limit    = flag.Int("limit", -1, "LIMIT (-1 = none)")
		offset   = flag.Int("offset", 0, "OFFSET")
		retries  = flag.Int("retries", 4, "max retries after the first attempt fails retryably")
		timeout  = flag.Duration("timeout", 2*time.Minute, "total budget for the query including retries")
		seed     = flag.Uint64("seed", 0, "backoff-jitter seed (0 = fixed default; print-and-reuse for replays)")
		full     = flag.Bool("full", false, "print the full result payload instead of the summary")
		request  = flag.String("request", "", "the query as a wire QueryRequest JSON object, instead of the clause flags")
	)
	flag.Parse()
	if err := run(*addr, *request, *tbl, *kind, *sortCols, *agg, *window, *workers, *maxBytes,
		*limit, *offset, *retries, *timeout, *seed, *full); err != nil {
		fmt.Fprintf(os.Stderr, "mcsquery: %v\n", err)
		var we *client.Error
		if errors.As(err, &we) {
			fmt.Fprintf(os.Stderr, "mcsquery: kind=%s retryable=%t\n", we.Kind, we.Retryable)
		}
		os.Exit(1)
	}
}

func run(addr, request, tbl, kind, sortCols, agg, window string, workers int, maxBytes int64,
	limit, offset, retries int, timeout time.Duration, seed uint64, full bool) error {
	// Accept bare host:port — the scheme is implied for a local daemon.
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	req := &server.QueryRequest{Table: tbl, Kind: kind, Workers: workers, MaxBytes: maxBytes, Offset: offset}
	switch {
	case request != "":
		var err error
		flag.Visit(func(f *flag.Flag) {
			if !strings.Contains(" addr request retries timeout seed full ", " "+f.Name+" ") {
				err = fmt.Errorf("excludes the clause flag -%s", f.Name)
			}
		})
		if err == nil {
			req, err = server.ParseQueryRequest([]byte(request)) // as strict as mcsd
		}
		if err != nil {
			return fmt.Errorf("-request: %w", err)
		}
	case sortCols == "":
		return errors.New("-sort is required")
	default:
		for _, c := range strings.Split(sortCols, ",") {
			name, desc := strings.CutSuffix(strings.TrimSpace(c), ":desc")
			req.SortCols = append(req.SortCols, server.SortColReq{Name: name, Desc: desc})
		}
		if agg != "" {
			k, col, _ := strings.Cut(agg, ":")
			req.Agg = &server.AggReq{Kind: k, Col: col}
		}
		if window != "" {
			col, desc := strings.CutSuffix(window, ":desc")
			req.Window = &server.WindowReq{OrderCol: col, Desc: desc}
		}
		if limit >= 0 {
			req.Limit = &limit
		}
	}

	cl, err := client.New(client.Config{BaseURL: addr, MaxRetries: retries, Seed: seed})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := cl.Query(ctx, *req)
	if err != nil {
		return err
	}
	out := any(res)
	if !full {
		out = map[string]any{
			"job_id":         res.JobID,
			"table":          res.Table,
			"rows":           res.Rows,
			"workers":        res.Workers,
			"plan":           res.Plan,
			"plan_cache_hit": res.PlanCacheHit,
			"queue_wait_ns":  res.QueueWaitNS,
			"exec_ns":        res.ExecNS,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
