// Command mcsperf is the repository's benchmark: four workloads, each
// measured end to end with tracing off and layer by layer in a traced
// run, every result checked against a naive oracle. See README.md.
//
//	mcsperf -seed 7                      every workload, one child process each
//	mcsperf -workload lib_ties -seed 7   one workload, in this process
//	mcsperf -workload lib_ties -trace 1  its traced run (per-layer metrics)
//	mcsperf compare A.json B.json        compare two -out run sets
//
// A run issues a fixed number of ops per workload, sized by -seconds.
// The last line of a single-workload run's standard output is one JSON
// object {correct, attempted, failed, metrics}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

type config struct {
	workload string
	seed     int64
	seconds  float64 // sizes the run: a phase issues opCount(rate, seconds) ops
	trace    int
	rows     int // tableRows; the self-tests run on a smaller table
	out      string
	corrupt  int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{rows: tableRows}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, each in its own child process)")
	flag.Int64Var(&cfg.seed, "seed", 7, "seed for the generated tables and the op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "sizes the timed phase: a fixed op count per workload that takes about this long on the reference machine")
	flag.IntVar(&cfg.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "append this run (with its spans) to a JSON run-set file")
	flag.IntVar(&cfg.corrupt, "corrupt", -1, "damage this op's result before verification, to show the run then fails")
	flag.Parse()
	if flag.NArg() > 0 || (cfg.trace != 0 && cfg.trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	if cfg.workload == "" {
		os.Exit(runAll(cfg))
	}
	w := workloadByName(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mcsperf: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	res, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, so each starts
// from a fresh heap, passing the flags through.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsperf: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(cfg.trace),
		}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "mcsperf: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// runWorkload is one run of one workload: set-up, the timed or traced
// phase, verification, tear-down.
func runWorkload(ctx context.Context, w *workload, cfg config) (res result, err error) {
	start := time.Now()
	e, err := setup(ctx, w, cfg.rows, cfg.seed)
	if err != nil {
		return res, err
	}
	setupTime := time.Since(start)
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	if cfg.corrupt >= 0 {
		e.corrupt = func(op int, out *output) {
			if op == cfg.corrupt {
				damage(out)
			}
		}
	}

	r := run{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Rows: cfg.rows,
		Seconds: cfg.seconds, Machine: thisMachine(),
	}
	var st loadStats
	var defs []metricDef
	measured := map[string]float64{}
	if cfg.trace == 1 {
		obs.Enable()
		defs = perLayer
		if st, r.Spans, err = e.runTraced(ctx, warmupOps, opCount(w.tracedRate, cfg.seconds), measured); err != nil {
			return res, err
		}
	} else {
		defs = endToEnd
		runtime.GC()
		samples := e.runLoad(ctx, warmupOps, opCount(w.rate, cfg.seconds))
		// Read the peak before verification: the oracle's own memory is
		// not the program's.
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		if st, err = e.summarize(samples); err != nil {
			return res, err
		}
		measured["latency_p50_ms"] = st.p50
		measured["ops_per_s"] = st.opsPerSec
		measured["setup_s"] = setupTime.Seconds()
		measured["peak_rss_mb"] = rss
		r.Diagnostics = map[string]value{
			"load.latency_tail_ms":   {st.tail, "ms"},
			"load.tail_pct":          {st.tailPct, "%"},
			"load.samples":           {float64(st.attempted - st.errored), "count"},
			"load.failed_share":      {share(st.failed(), st.attempted), "ratio"},
			"load.verify_mismatches": {float64(st.mismatched), "count"},
		}
	}

	r.Attempted, r.Failed = st.attempted, st.failed()
	r.Errored, r.VerifyMismatches = st.errored, st.mismatched
	r.Correct = st.attempted > 0 && r.Failed == 0
	if r.Metrics, err = collect(defs, measured); err != nil {
		return res, err
	}
	fmt.Printf("%s seed=%d rows=%d trace=%d: %d ops, %d errored, %d verify_mismatches\n",
		w.name, cfg.seed, cfg.rows, cfg.trace, st.attempted, st.errored, st.mismatched)
	printMetrics(os.Stdout, defs, r.Metrics, r.Diagnostics)
	if cfg.out != "" {
		if err := appendRun(cfg.out, r); err != nil {
			return res, err
		}
	}
	return r.result, nil
}

func share[T int | int64](part, whole T) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// damage flips one value of a result.
func damage(out *output) {
	switch {
	case len(out.Aggregates) > 0:
		out.Aggregates[len(out.Aggregates)/2] ^= 1
	case len(out.RowOids) > 0:
		out.RowOids[len(out.RowOids)/2] ^= 1
	}
}

// peakRSSMB is the process's peak resident set so far (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
