package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one metric the harness emits. The tables below
// are the single list of names: BENCHMARK.json repeats them (a
// self-test holds the two equal), a run emits exactly these, and
// `compare` takes its bounds from here.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a caller of the system sees, measured with
// tracing off. Each bound is the tightest the builder's same-commit run
// sets support (README, "Reference numbers"): memory repeats within a
// few percent; the three timings move with the shared machine by more
// than any bound the benchmark contract allows, so they sit at its
// maximum.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// perLayer are the metrics of single layers, measured in the traced
// run. A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "byteslice.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "byteslice.lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "byteslice.lookup_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "planner.search_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.plans_costed", Unit: "count", Better: "lower"},
	{Name: "massage.run_ms", Unit: "ms", Better: "lower"},
	{Name: "massage.bytes_moved", Unit: "B", Better: "lower"},
	{Name: "mergesort.sort_r0_ms", Unit: "ms", Better: "lower"},
	{Name: "mergesort.sort_r0_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "mergesort.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "mergesort.ovc_merges", Unit: "count", Better: "lower"},
	{Name: "mergesort.phase3_merge_passes", Unit: "count", Better: "lower"},
	{Name: "mergesort.parallel_merge_elements", Unit: "count", Better: "lower"},
	{Name: "mcsort.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "mcsort.massage_ms", Unit: "ms", Better: "lower"},
	{Name: "mcsort.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "mcsort.lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "mcsort.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "mcsort.self_ms", Unit: "ms", Better: "lower"},
	{Name: "mcsort.group_sorts", Unit: "count", Better: "lower"},
	{Name: "engine.run_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.postsort_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.pred_over_meas", Unit: "ratio", Better: "higher"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.plancache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "client.query_ms", Unit: "ms", Better: "lower"},
	{Name: "client.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "client.result_mb", Unit: "MB", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "shard.run_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.subquery_max_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.subquery_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.gather_self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.fanout_subqueries", Unit: "count", Better: "lower"},
	{Name: "shard.pin_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_retained_mb", Unit: "MB", Better: "lower"},
	{Name: "load.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "load.tail_pct", Unit: "%", Better: "higher"},
	{Name: "load.samples", Unit: "count", Better: "higher"},
	{Name: "load.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "load.harness_self_ms", Unit: "ms", Better: "lower"},
	{Name: "load.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "load.verify_mismatches", Unit: "count", Better: "lower"},
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is one workload run as kept in a -out file.
type run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Rows     int     `json:"rows"`
	Seconds  float64 `json:"seconds"`
	Machine  machine `json:"machine"`
	result
	// Failed split by cause, so that a wrong answer is never mistaken
	// for a timeout.
	Errored          int `json:"errored"`
	VerifyMismatches int `json:"verify_mismatches"`
	// Diagnostics the generator prints with every run; not end-to-end
	// metrics because the tail of a short run is too noisy to bound.
	Diagnostics map[string]value `json:"diagnostics,omitempty"`
	Spans       []span           `json:"spans,omitempty"`
}

// runSet is the document a -out file holds: every run written to it.
type runSet struct {
	Runs []run `json:"runs"`
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	m := machine{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// collect turns measured values into the emitted map: exactly the
// declared metrics, each with its unit. A value measured under a name
// that is not declared is a bug in the harness.
func collect(defs []metricDef, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: measured[d.Name], Unit: d.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}

// printMetrics lists the declared metrics by name, in declaration
// order, and then the run's diagnostics.
func printMetrics(w io.Writer, defs []metricDef, vals, diagnostics map[string]value) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
	for _, name := range sortedKeys(diagnostics) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, diagnostics[name].Value, diagnostics[name].Unit)
	}
}

// appendRun adds r to the run set in path, creating the file if needed.
func appendRun(path string, r run) error {
	set, err := readRunSet(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, r)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
