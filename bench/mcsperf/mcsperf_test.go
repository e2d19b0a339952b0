package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/server"
)

// testRows keeps every self-test small enough for tier-1 while staying
// at the parallel-sort threshold, so both workers really run.
const testRows = 1 << 14

// testConfig sizes a run to ops ops per phase on the small table.
func testConfig(w *workload, trace, ops int) config {
	rate := w.rate
	if trace == 1 {
		rate = w.tracedRate
	}
	return config{workload: w.name, seed: 11, seconds: float64(ops) / rate, trace: trace, rows: testRows, corrupt: -1}
}

func TestOpCountIsFixedBySeconds(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		if n := opCount(w.rate, float64(bf.RunSeconds)); n < 40 {
			t.Errorf("%s: %d timed ops in a run of run_seconds, want at least 40", w.name, n)
		}
		if got := opCount(w.rate, float64(7)/w.rate); got != 7 {
			t.Errorf("%s: opCount = %d, want 7", w.name, got)
		}
	}
	if got := opCount(2, 0.01); got != 1 {
		t.Errorf("a run issues at least one op, got %d", got)
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {75, 75}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// The tail is the highest percentile with at least ten samples
	// beyond it: n*(1-p) >= 10.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n-rankOf(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond", c.n, p, c.n-rankOf(c.n, p))
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: two
	// points extrapolate.
	if got, want := spread([]float64{10, 20}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one = %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: union [10,60)
		{Name: "c", Start: 35, End: 38, Parent: 0},   // inside the union
		{Name: "d", Start: 90, End: 120, Parent: 0},  // sticks out: clipped to [90,100)
		{Name: "e", Start: 12, End: 20, Parent: 1},   // grandchild: not root's
		{Name: "f", Start: 200, End: 300, Parent: 0}, // outside entirely
		{Name: "other", Start: 0, End: 100, Parent: -1},
	}
	if got := selfTime(spans, 0); got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := selfTime(spans, 1); got != 22 {
		t.Errorf("a self = %d, want 22", got)
	}
	if got := selfTime(spans, 7); got != 100 {
		t.Errorf("childless self = %d, want 100", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op", -1, 3)
	d, err := rec.time("layer", root, 3, func() error { time.Sleep(2 * time.Millisecond); return nil })
	if err != nil || d < 2*time.Millisecond {
		t.Fatalf("time = %v, %v", d, err)
	}
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].OpID != 3 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if self := selfTime(rec.spans, root); self < 0 || self > rec.spans[root].dur()-d {
		t.Errorf("root self %v with child %v of %v", self, d, rec.spans[root].dur())
	}
}

// The oracle shares no code with the engine; on every workload's query
// shape the two must agree, whatever plan the engine's search picks.
func TestOracleAgreesWithEngine(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: testRows, Seed: 5, Skew: w.skew})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := registryOf(tbl); err != nil {
				t.Fatal(err)
			}
			req := w.request(0, []int{3})
			q, err := req.ToEngineQuery()
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.RunContext(context.Background(), tbl, q, engine.Options{
				Massaging: true, Model: server.BuiltinModel(), Rho: searchRho, MaxPlans: maxPlans,
				Workers: w.workers, Limit: req.Limit, Offset: req.Offset,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := buildReference(tbl, q, res.ColOrder)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.sum
			if w.paged {
				want = ref.pageSum(req.Offset, pageRows)
				if len(res.Ranks) != pageRows {
					t.Fatalf("page has %d rows", len(res.Ranks))
				}
			}
			if got := engineOutput(res).checksum(); got != want {
				t.Errorf("engine checksum %x, oracle %x", got, want)
			}
			if n := len(res.Aggregates) + len(res.Ranks); n == 0 {
				t.Error("empty result")
			}
		})
	}
}

func TestPageSumClipsPastTheEnd(t *testing.T) {
	ref := &reference{ranks: []uint32{1, 2, 3}, oids: []uint32{7, 8, 9}}
	if got, want := ref.pageSum(2, 5), windowChecksum(fnvOffset, []uint32{3}, []uint32{9}); got != want {
		t.Errorf("clipped page = %x, want %x", got, want)
	}
	if got, want := ref.pageSum(10, 5), windowChecksum(fnvOffset, nil, nil); got != want {
		t.Errorf("page past the end = %x, want %x", got, want)
	}
}

func TestCorruptedResultFailsTheRun(t *testing.T) {
	w := workloadByName("lib_ties")
	ctx := context.Background()
	e, err := setup(ctx, w, testRows, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.corrupt = func(op int, out *output) {
		if op == warmupOps+1 {
			damage(out)
		}
	}
	st, err := e.summarize(e.runLoad(ctx, warmupOps, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted != 4 || st.mismatched != 1 || st.errored != 0 || st.failed() != 1 {
		t.Errorf("stats = %+v, want 4 attempted and exactly one mismatch", st)
	}
	if got := share(st.failed(), st.attempted); got != 0.25 {
		t.Errorf("failed share = %v, want 0.25", got)
	}

	// The same through the command's own path: the result line says so.
	cfg := testConfig(w, 0, 3)
	cfg.corrupt = warmupOps
	res, err := runWorkload(ctx, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Errorf("result = %+v, want incorrect with one failed op of three", res)
	}
}

func TestSameSeedSameOpsAndChecksums(t *testing.T) {
	if !reflect.DeepEqual(pageOrder(7), pageOrder(7)) || reflect.DeepEqual(pageOrder(7), pageOrder(8)) {
		t.Fatal("page order must be a function of the seed")
	}
	seen := map[int]bool{}
	for _, p := range pageOrder(7) {
		seen[p] = true
	}
	if len(seen) != topkPages {
		t.Fatalf("page order visits %d distinct pages, want %d", len(seen), topkPages)
	}
	w := workloadByName("serve_topk_cold")
	a, b := w.request(9, pageOrder(7)), w.request(9, pageOrder(7))
	if !reflect.DeepEqual(a, b) || a.Offset%pageRows != 0 || *a.Limit != pageRows {
		t.Fatalf("requests differ or are not pages: %+v %+v", a, b)
	}

	ctx := context.Background()
	sums := func(seed int64) []uint64 {
		e, err := setup(ctx, workloadByName("shard3_window_full"), testRows, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		var out []uint64
		for _, s := range e.runLoad(ctx, warmupOps, 3) {
			if s.err != nil {
				t.Fatal(s.err)
			}
			out = append(out, s.sum)
		}
		return out
	}
	first, again, other := sums(3), sums(3), sums(4)
	if !reflect.DeepEqual(first, again) {
		t.Errorf("same seed, different checksums: %x vs %x", first, again)
	}
	if reflect.DeepEqual(first, other) {
		t.Errorf("different seeds, same checksums: %x", first)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every name the harness can emit is declared in BENCHMARK.json and
// the other way round, with the same unit, direction and bound.
func TestDeclaredNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in code", len(bf.Workloads), len(workloads))
	}
	names := map[string]bool{}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, code %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		names[w.name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || names[d.Name] {
			t.Errorf("bad or repeated name %q", d.Name)
		}
		names[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench/mcsperf" {
		t.Errorf("paths = %v", bf.Paths)
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func emittedNames(m map[string]value) []string {
	names := sortedKeys(m)
	for _, n := range names {
		if m[n].Unit == "" {
			names = append(names, "no unit: "+n)
		}
	}
	return names
}

func sameSet(a, b []string) bool {
	am := map[string]bool{}
	for _, s := range a {
		am[s] = true
	}
	for _, s := range b {
		if !am[s] {
			return false
		}
	}
	return len(a) == len(b)
}

// An untraced run emits exactly the end-to-end metrics, none of them
// zero, and writes a run set that compare can read back.
func TestUntracedRunEmitsEndToEndMetrics(t *testing.T) {
	w := workloadByName("lib_wide_unique")
	cfg := testConfig(w, 0, 4)
	cfg.out = t.TempDir() + "/set.json"
	for i := 0; i < 2; i++ {
		res, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 4 || res.Failed != 0 {
			t.Fatalf("result = %+v", res)
		}
		if got := emittedNames(res.Metrics); !sameSet(got, metricNames(endToEnd)) {
			t.Fatalf("emitted %v, declared %v", got, metricNames(endToEnd))
		}
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s = %v, end-to-end metrics are never zero", name, v.Value)
			}
		}
	}
	set, err := readRunSet(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Runs) != 2 || set.Runs[1].Workload != w.name || set.Runs[1].Diagnostics["load.samples"].Value != 4 {
		t.Fatalf("run set = %+v", set)
	}
	var buf bytes.Buffer
	if regressed, err := compare(&buf, set, set); err != nil || regressed {
		t.Errorf("a run set against itself: regressed %v, error %v\n%s", regressed, err, buf.String())
	}
	if !strings.Contains(buf.String(), "latency_p50_ms") || !strings.Contains(buf.String(), "verify_mismatches") {
		t.Errorf("compare output:\n%s", buf.String())
	}
}

// A traced run emits exactly the per-layer metrics. The two served
// workloads must do the job they were chosen for: every paged query
// misses the plan cache, every sharded query hits it.
func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(w, 1, 2)
			cfg.out = t.TempDir() + "/set.json"
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 4 {
				t.Fatalf("result = %+v", res)
			}
			if got := emittedNames(res.Metrics); !sameSet(got, metricNames(perLayer)) {
				t.Fatalf("emitted %v, declared %v", got, metricNames(perLayer))
			}
			m := func(name string) float64 { return res.Metrics[name].Value }
			if m("engine.run_ms") <= 0 || m("mcsort.execute_ms") <= 0 || m("byteslice.lookup_ms") <= 0 {
				t.Errorf("engine layers unmeasured: %+v", res.Metrics)
			}
			switch w.path {
			case pathLib:
				if m("planner.search_ms") != 0 || m("server.run_ms") != 0 || m("client.query_ms") != 0 || m("shard.run_ms") != 0 {
					t.Errorf("bypassed layers report time: %+v", res.Metrics)
				}
				if m("mergesort.sort_r0_ms") <= 0 {
					t.Error("round-0 sort unmeasured")
				}
			case pathServe:
				if m("server.plancache_hit_share") != 0 {
					t.Errorf("plan cache hit share %v, want 0: the workload must stay cold", m("server.plancache_hit_share"))
				}
				if m("planner.search_ms") <= 0 || m("planner.plans_costed") <= 0 || m("mergesort.topk_ms") <= 0 {
					t.Errorf("cold path unmeasured: %+v", res.Metrics)
				}
				if m("client.result_mb") <= 0 {
					t.Error("wire bytes uncounted")
				}
			case pathShard:
				if m("server.plancache_hit_share") <= 0.9 || m("shard.pin_cache_hit_share") <= 0.9 {
					t.Errorf("hit shares %v and %v, want > 0.9: the plan caches must be warm",
						m("server.plancache_hit_share"), m("shard.pin_cache_hit_share"))
				}
				if m("shard.fanout_subqueries") != float64(w.shards) || m("planner.search_ms") != 0 {
					t.Errorf("fan-out %v, search %v", m("shard.fanout_subqueries"), m("planner.search_ms"))
				}
				if m("shard.subquery_max_ms") <= 0 || m("shard.subquery_sum_ms") < m("shard.subquery_max_ms") {
					t.Errorf("sub-queries: max %v sum %v", m("shard.subquery_max_ms"), m("shard.subquery_sum_ms"))
				}
			}
			set, err := readRunSet(cfg.out)
			if err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range set.Runs[0].Spans {
				if s.Parent == -1 {
					roots++
				} else if p := set.Runs[0].Spans[s.Parent]; p.OpID != s.OpID || p.Start > s.Start {
					t.Errorf("span %+v under %+v", s, p)
				}
			}
			if roots != 2 {
				t.Errorf("%d root spans, want one per traced op", roots)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 70, 100, 130, 75, 100, 120, 80, 100}
	scaledOf := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	scaled := func(f float64) []float64 { return scaledOf(steady, f) }
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, scaled(1.05), verdictOK},
		{lower, steady, scaled(1.10), verdictRegressed},
		{lower, steady, scaled(0.80), verdictOK},
		{higher, steady, scaled(0.85), verdictRegressed},
		{higher, steady, scaled(1.30), verdictOK},
		{lower, steady, noisy, verdictUnresolved},
		// The spread is judged first: noise wider than the bound hides a
		// regression as well as it fakes one.
		{lower, steady, scaledOf(noisy, 1.5), verdictUnresolved},
		// One run a side has no spread to judge by.
		{lower, []float64{100}, []float64{103}, verdictUnresolved},
		{lower, steady, []float64{150}, verdictUnresolved},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}

func TestCompareGroupsBySeedAndRefusesOtherWork(t *testing.T) {
	mk := func(seed int64, p50 float64) run {
		r := run{Workload: "lib_ties", Seed: seed, Rows: tableRows, Seconds: 20}
		r.Attempted = 100
		r.Metrics = map[string]value{"latency_p50_ms": {p50, "ms"}, "ops_per_s": {1000 / p50, "1/s"}, "setup_s": {1, "s"}, "peak_rss_mb": {100, "MB"}}
		return r
	}
	set := func(runs ...run) runSet { return runSet{Runs: runs} }
	cmp := func(a, b runSet) (bool, string, error) {
		var buf bytes.Buffer
		regressed, err := compare(&buf, a, b)
		return regressed, buf.String(), err
	}
	base := set(mk(7, 100), mk(7, 101), mk(7, 99), mk(8, 200), mk(8, 202), mk(8, 198))

	// Seeds are judged apart: pooled, the two seeds' medians would read
	// as a spread of 100 % and hide that seed 8 got 40 % slower.
	regressed, out, err := cmp(base, set(mk(7, 100), mk(7, 101), mk(7, 99), mk(8, 280), mk(8, 282), mk(8, 278)))
	if err != nil || !regressed {
		t.Errorf("a 40%% slower seed must regress (error %v):\n%s", err, out)
	}
	if regressed, out, err := cmp(base, set(mk(7, 101), mk(7, 102), mk(7, 100), mk(8, 201), mk(8, 203), mk(8, 199))); err != nil || regressed {
		t.Errorf("a 1%% change must not regress (error %v):\n%s", err, out)
	}

	// A wrong answer and an errored op each regress, under their own name.
	wrong := mk(8, 200)
	wrong.Failed, wrong.VerifyMismatches = 1, 1
	if regressed, out, _ := cmp(base, set(mk(7, 100), mk(7, 101), mk(8, 200), wrong)); !regressed || !regexp.MustCompile(`8 verify_mismatches .* regressed`).MatchString(out) || regexp.MustCompile(`errored_ops .* regressed`).MatchString(out) {
		t.Errorf("a wrong answer must regress as verify_mismatches:\n%s", out)
	}
	timeout := mk(7, 100)
	timeout.Failed, timeout.Errored = 1, 1
	if regressed, _, _ := cmp(base, set(timeout, mk(7, 101), mk(8, 200), mk(8, 201))); !regressed {
		t.Error("an errored op must regress")
	}

	// A metric a run lacks is unresolved, not a zero that reads as ok.
	bare := mk(7, 100)
	delete(bare.Metrics, "peak_rss_mb")
	if regressed, out, err := cmp(base, set(bare, mk(7, 101), mk(8, 200), mk(8, 201))); err != nil || regressed || !strings.Contains(out, "missing") {
		t.Errorf("a missing metric must read unresolved (regressed %v, error %v):\n%s", regressed, err, out)
	}

	// Run sets that did other work cannot be compared at all.
	fewer := mk(8, 200)
	fewer.Attempted = 9
	smaller := mk(8, 200)
	smaller.Rows = testRows
	for name, b := range map[string]runSet{
		"a seed only one side has": set(mk(7, 100), mk(7, 101)),
		"another op count":         set(mk(7, 100), mk(7, 101), mk(8, 200), fewer),
		"another table size":       set(mk(7, 100), mk(7, 101), mk(8, 200), smaller),
		"no untraced runs":         set(),
	} {
		if _, _, err := cmp(base, b); err == nil {
			t.Errorf("%s: compare must refuse", name)
		}
	}
}
