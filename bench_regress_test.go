// Benchmark-regression harness for the parallel MCS pipeline: a fixed
// 1M-row, 4-column sort measured at workers 1/2/4/8.
//
// Two entry points share the measurement code:
//
//   - BenchmarkPipeline1Mx4 — ordinary `go test -bench` benchmarks, one
//     sub-benchmark per worker count (`make bench-regress` runs them).
//   - TestBenchRegression — the CI gate. Enabled by BENCH_REGRESS=1, it
//     emits BENCH_pr2.json and fails if single-thread throughput
//     regressed more than benchTolerance against bench/baseline_pr2.json.
//
// Raw nanoseconds are not portable across machines, so the gate compares
// a *normalized* figure: the pipeline's single-thread time divided by
// the time of a reference single-column mergesort.Sort over the same
// rows, measured in the same process. Both numerator and denominator
// move together with machine speed; the ratio only moves when the
// pipeline itself gets slower. BENCH_BASELINE_WRITE=1 regenerates the
// committed baseline.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/mergesort"
	"repro/internal/plan"
)

// must stops a timing helper that has no *testing.T on an error a
// background-context sort of well-formed input cannot return.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

const (
	benchRows      = 1 << 20
	benchReps      = 3
	benchOVCReps   = 5 // paired on/off reps; the 5% gate needs the extra stability
	benchTolerance = 0.05
	benchBaseline  = "bench/baseline_pr2.json"
	benchOutput    = "BENCH_pr2.json"
)

var (
	benchWidths  = []int{12, 16, 8, 20}
	benchPlan    = plan.Plan{Rounds: []plan.Round{{Width: 28, Bank: 32}, {Width: 28, Bank: 32}}}
	benchWorkers = []int{1, 2, 4, 8}
)

// benchInputs builds the fixed 1M-row, 4-column workload (seeded, so
// every run and every machine sorts identical data).
func benchInputs() []massage.Input {
	rng := rand.New(rand.NewSource(7))
	inputs := make([]massage.Input, len(benchWidths))
	for i, w := range benchWidths {
		codes := make([]uint64, benchRows)
		mask := uint64(1)<<uint(w) - 1
		for j := range codes {
			codes[j] = rng.Uint64() & mask
		}
		inputs[i] = massage.Input{Codes: codes, Width: w}
	}
	return inputs
}

// measurePipeline returns the best-of-reps wall time of the full sort at
// the given worker count, plus the resulting permutation for the
// cross-worker identity check.
func measurePipeline(tb testing.TB, inputs []massage.Input, workers, reps int) (time.Duration, []uint32) {
	tb.Helper()
	best := time.Duration(0)
	var perm []uint32
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		res, err := mcsort.ExecuteContext(context.Background(), inputs, benchPlan, mcsort.Options{Workers: workers})
		if err != nil {
			tb.Fatal(err)
		}
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
		perm = res.Perm
	}
	return best, perm
}

// measureReference times the machine-speed yardstick: one sequential
// single-column SIMD merge-sort over the same row count at the plan's
// bank width.
func measureReference(reps int) time.Duration {
	rng := rand.New(rand.NewSource(11))
	src := make([]uint64, benchRows)
	for i := range src {
		src[i] = rng.Uint64() & (uint64(1)<<28 - 1)
	}
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		keys := append([]uint64(nil), src...)
		oids := make([]uint32, benchRows)
		for i := range oids {
			oids[i] = uint32(i)
		}
		t0 := time.Now()
		must(mergesort.SortWithParamsContext(context.Background(), 32, keys, oids, mergesort.Params{}))
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// benchRun is one row of BENCH_pr2.json.
type benchRun struct {
	Workers    int     `json:"workers"`
	Ns         int64   `json:"ns"`
	RowsPerSec float64 `json:"rows_per_sec"`
	SpeedupX   float64 `json:"speedup_vs_1"`
}

// benchReport is the emitted BENCH_pr2.json document.
type benchReport struct {
	Benchmark    string     `json:"benchmark"`
	Rows         int        `json:"rows"`
	Widths       []int      `json:"widths"`
	Plan         string     `json:"plan"`
	ReferenceNs  int64      `json:"reference_ns"`
	Runs         []benchRun `json:"runs"`
	NormSingleTh float64    `json:"normalized_single_thread"`
}

// benchBaselineDoc is the committed regression baseline.
type benchBaselineDoc struct {
	NormSingleTh float64 `json:"normalized_single_thread"`
	Tolerance    float64 `json:"tolerance"`
	Note         string  `json:"note"`
}

func BenchmarkPipeline1Mx4(b *testing.B) {
	inputs := benchInputs()
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcsort.ExecuteContext(context.Background(), inputs, benchPlan, mcsort.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(benchRows * 8)
		})
	}
}

func TestBenchRegression(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the benchmark-regression gate")
	}
	inputs := benchInputs()

	rep := benchReport{
		Benchmark: "mcs_1m_4col",
		Rows:      benchRows,
		Widths:    benchWidths,
		Plan:      benchPlan.String(),
	}
	rep.ReferenceNs = measureReference(benchReps).Nanoseconds()

	var basePerm []uint32
	var singleNs int64
	for _, w := range benchWorkers {
		d, perm := measurePipeline(t, inputs, w, benchReps)
		if basePerm == nil {
			basePerm = perm
			singleNs = d.Nanoseconds()
		} else {
			for i := range perm {
				if perm[i] != basePerm[i] {
					t.Fatalf("workers=%d: Perm diverges from workers=1 at %d", w, i)
				}
			}
		}
		rep.Runs = append(rep.Runs, benchRun{
			Workers:    w,
			Ns:         d.Nanoseconds(),
			RowsPerSec: float64(benchRows) / (float64(d.Nanoseconds()) / 1e9),
			SpeedupX:   float64(singleNs) / float64(d.Nanoseconds()),
		})
	}
	rep.NormSingleTh = float64(singleNs) / float64(rep.ReferenceNs)

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	outPath := os.Getenv("BENCH_OUT")
	if outPath == "" {
		outPath = benchOutput
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: normalized single-thread %.3f (pipeline %.1fms, reference %.1fms)",
		outPath, rep.NormSingleTh, float64(singleNs)/1e6, float64(rep.ReferenceNs)/1e6)

	if os.Getenv("BENCH_BASELINE_WRITE") != "" {
		doc := benchBaselineDoc{
			NormSingleTh: rep.NormSingleTh,
			Tolerance:    benchTolerance,
			Note:         "1M-row 4-col pipeline single-thread time over the single-column reference sort; regenerate with BENCH_REGRESS=1 BENCH_BASELINE_WRITE=1",
		}
		b, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("bench", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaseline, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote baseline %s", benchBaseline)
		return
	}

	raw, err := os.ReadFile(benchBaseline)
	if err != nil {
		t.Fatalf("no committed baseline (%v); run with BENCH_BASELINE_WRITE=1 to create one", err)
	}
	var base benchBaselineDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	tol := base.Tolerance
	if tol == 0 {
		tol = benchTolerance
	}
	if rep.NormSingleTh > base.NormSingleTh*(1+tol) {
		t.Fatalf("single-thread regression: normalized %.3f vs baseline %.3f (+%.1f%% > %.0f%% tolerance)",
			rep.NormSingleTh, base.NormSingleTh,
			100*(rep.NormSingleTh/base.NormSingleTh-1), 100*tol)
	}
	t.Logf("within tolerance: normalized %.3f vs baseline %.3f", rep.NormSingleTh, base.NormSingleTh)
}

// --- Top-K sweep ----------------------------------------------------
//
// TestBenchTopK measures LIMIT-aware execution (mcsort.Options.LimitRows,
// docs/topk.md) against the full sort on the 1M-row 4-column workload,
// swept over K in {1, 100, 10k} and duplicate fractions {0, 0.99}.
// Gates: the truncated path must be at least 2x faster than the full
// sort at K=100 (unique keys, single worker — the serving case), and
// the unlimited path measured in the same process must stay within the
// PR 2 tolerance of bench/baseline_pr2.json (the truncation plumbing
// must not tax full sorts). Results land in BENCH_pr7.json.

const benchTopKOutput = "BENCH_pr7.json"

type benchTopKRun struct {
	Limit    int     `json:"limit"`
	DupFrac  float64 `json:"dup_frac"`
	Workers  int     `json:"workers"`
	TopKNs   int64   `json:"topk_ns"`
	FullNs   int64   `json:"full_ns"`
	SpeedupX float64 `json:"speedup_x"`
	RowsOut  int     `json:"rows_out"`
}

type benchTopKReport struct {
	Benchmark    string         `json:"benchmark"`
	Rows         int            `json:"rows"`
	Widths       []int          `json:"widths"`
	Plan         string         `json:"plan"`
	Runs         []benchTopKRun `json:"sweep"`
	NormSingleTh float64        `json:"unlimited_normalized_single_thread"`
}

// benchDupInputs builds the 1M-row 4-column workload with the given
// duplicate fraction on every column (dup = 1 - distinct/n, capped at
// each column's domain).
func benchDupInputs(dup float64) []massage.Input {
	if dup <= 0 {
		return benchInputs()
	}
	rng := rand.New(rand.NewSource(13))
	card := int(float64(benchRows)*(1-dup) + 0.5)
	if card < 1 {
		card = 1
	}
	inputs := make([]massage.Input, len(benchWidths))
	for i, w := range benchWidths {
		dom := 1 << uint(w)
		c := card
		if c > dom {
			c = dom
		}
		codes := make([]uint64, benchRows)
		for j := range codes {
			codes[j] = uint64(rng.Intn(c))
		}
		inputs[i] = massage.Input{Codes: codes, Width: w}
	}
	return inputs
}

// measureTopK returns the best-of-reps wall time of the truncated sort
// and the surviving row count.
func measureTopK(tb testing.TB, inputs []massage.Input, limit, workers, reps int) (time.Duration, int) {
	tb.Helper()
	best := time.Duration(0)
	rows := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		res, err := mcsort.ExecuteContext(context.Background(), inputs, benchPlan, mcsort.Options{Workers: workers, LimitRows: limit})
		if err != nil {
			tb.Fatal(err)
		}
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
		rows = len(res.Perm)
	}
	return best, rows
}

func TestBenchTopK(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the benchmark-regression gate")
	}
	rep := benchTopKReport{
		Benchmark: "topk_1m_4col_skew_sweep",
		Rows:      benchRows,
		Widths:    benchWidths,
		Plan:      benchPlan.String(),
	}

	// Unlimited-path regression guard: the same normalized single-thread
	// figure as TestBenchRegression, measured in this process so the
	// truncation plumbing in the shared pipeline is what is on trial.
	refNs := measureReference(benchReps).Nanoseconds()
	var gate100 float64
	for _, dup := range []float64{0, 0.99} {
		inputs := benchDupInputs(dup)
		for _, workers := range []int{1, 4} {
			full, _ := measurePipeline(t, inputs, workers, benchReps)
			if dup == 0 && workers == 1 {
				rep.NormSingleTh = float64(full.Nanoseconds()) / float64(refNs)
			}
			for _, k := range []int{1, 100, 10_000} {
				d, rows := measureTopK(t, inputs, k, workers, benchReps)
				sp := float64(full.Nanoseconds()) / float64(d.Nanoseconds())
				if dup == 0 && workers == 1 && k == 100 {
					gate100 = sp
				}
				rep.Runs = append(rep.Runs, benchTopKRun{
					Limit: k, DupFrac: dup, Workers: workers,
					TopKNs: d.Nanoseconds(), FullNs: full.Nanoseconds(),
					SpeedupX: sp, RowsOut: rows,
				})
				t.Logf("dup=%.2f workers=%d K=%d: topk %.2fms vs full %.2fms (%.2fx), %d rows",
					dup, workers, k, float64(d.Nanoseconds())/1e6, float64(full.Nanoseconds())/1e6, sp, rows)
			}
		}
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	outPath := os.Getenv("BENCH_TOPK_OUT")
	if outPath == "" {
		outPath = benchTopKOutput
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", outPath)

	if gate100 < 2 {
		t.Errorf("K=100 truncated sort only %.2fx faster than the full sort, gate requires >= 2x", gate100)
	}
	raw, err := os.ReadFile(benchBaseline)
	if err != nil {
		t.Fatalf("no committed baseline (%v)", err)
	}
	var base benchBaselineDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	tol := base.Tolerance
	if tol == 0 {
		tol = benchTolerance
	}
	if rep.NormSingleTh > base.NormSingleTh*(1+tol) {
		t.Errorf("unlimited path regression: normalized %.3f vs baseline %.3f (+%.1f%% > %.0f%% tolerance)",
			rep.NormSingleTh, base.NormSingleTh,
			100*(rep.NormSingleTh/base.NormSingleTh-1), 100*tol)
	}
}

// --- OVC skew sweep -------------------------------------------------
//
// TestBenchOVCSkewSweep measures the offset-value-coded merge against
// the plain merge across duplicate fractions 0 → 0.99 (8 pre-sorted
// 1M-row runs, single worker so the comparison is pure merge work).
// Two gates: unique keys must not regress more than benchTolerance
// (OVC overhead bound), and dup ≥ 0.9 must not be slower than plain
// (the tie fast path must at least break even; the speedup figure is
// emitted into BENCH_pr6.json for tracking).

const benchOVCOutput = "BENCH_pr6.json"

type benchOVCRun struct {
	DupFrac  float64 `json:"dup_frac"`
	OnNs     int64   `json:"ovc_on_ns"`
	OffNs    int64   `json:"ovc_off_ns"`
	SpeedupX float64 `json:"speedup_x"`
}

type benchOVCReport struct {
	Benchmark string        `json:"benchmark"`
	Rows      int           `json:"rows"`
	RunsK     int           `json:"runs"`
	Runs      []benchOVCRun `json:"sweep"`
}

// benchOVCKeys builds n 32-bit keys with the given duplicate fraction
// (dup = 1 − distinct/n), cut into nRuns sorted runs.
func benchOVCKeys(n, nRuns int, dup float64) ([]uint64, []uint32, []int) {
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	if dup <= 0 {
		// An odd-multiplier scramble is bijective mod 2^32: all unique.
		for i := range keys {
			keys[i] = uint64(uint32(i) * 2654435761)
		}
	} else {
		card := int(float64(n)*(1-dup) + 0.5)
		if card < 1 {
			card = 1
		}
		rng := rand.New(rand.NewSource(int64(card)))
		for i := range keys {
			keys[i] = uint64(uint32(rng.Intn(card)) * 2654435761)
		}
	}
	for i := range oids {
		oids[i] = uint32(i)
	}
	runs := make([]int, nRuns+1)
	for r := 0; r <= nRuns; r++ {
		runs[r] = n * r / nRuns
	}
	for r := 0; r < nRuns; r++ {
		must(mergesort.SortWithParamsContext(context.Background(), 32, keys[runs[r]:runs[r+1]], oids[runs[r]:runs[r+1]], mergesort.Params{}))
	}
	return keys, oids, runs
}

// benchOVCPair times the plain and the offset-value-coded merge
// back to back, rep by rep, so slow drift (thermal, scheduler) hits
// both sides equally; it returns the best rep of each. One untimed
// warmup pass faults in the working buffers first.
func benchOVCPair(keys []uint64, oids []uint32, runs []int, reps int) (off, on time.Duration) {
	pOff := mergesort.DefaultParams(4)
	pOff.DisableOVC = true
	pOn := mergesort.DefaultParams(4)
	k := make([]uint64, len(keys))
	o := make([]uint32, len(oids))
	measure := func(p mergesort.Params) time.Duration {
		copy(k, keys)
		copy(o, oids)
		t0 := time.Now()
		must(mergesort.ParallelMergeWithParamsContext(context.Background(), 32, k, o, runs, p, 1))
		return time.Since(t0)
	}
	measure(pOff)
	for r := 0; r < reps; r++ {
		if d := measure(pOff); off == 0 || d < off {
			off = d
		}
		if d := measure(pOn); on == 0 || d < on {
			on = d
		}
	}
	return off, on
}

func TestBenchOVCSkewSweep(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the benchmark-regression gate")
	}
	const nRuns = 8
	rep := benchOVCReport{Benchmark: "ovc_merge_skew_sweep", Rows: benchRows, RunsK: nRuns}
	for _, dup := range []float64{0, 0.5, 0.9, 0.99} {
		keys, oids, runs := benchOVCKeys(benchRows, nRuns, dup)
		off, on := benchOVCPair(keys, oids, runs, benchOVCReps)
		rep.Runs = append(rep.Runs, benchOVCRun{
			DupFrac:  dup,
			OnNs:     on.Nanoseconds(),
			OffNs:    off.Nanoseconds(),
			SpeedupX: float64(off.Nanoseconds()) / float64(on.Nanoseconds()),
		})
		t.Logf("dup=%.2f: ovc on %.2fms, off %.2fms (%.2fx)",
			dup, float64(on.Nanoseconds())/1e6, float64(off.Nanoseconds())/1e6,
			float64(off.Nanoseconds())/float64(on.Nanoseconds()))
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	outPath := os.Getenv("BENCH_OVC_OUT")
	if outPath == "" {
		outPath = benchOVCOutput
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", outPath)

	if r0 := rep.Runs[0]; float64(r0.OnNs) > float64(r0.OffNs)*(1+benchTolerance) {
		t.Errorf("unique keys: OVC merge %.2fms vs plain %.2fms — overhead above %.0f%%",
			float64(r0.OnNs)/1e6, float64(r0.OffNs)/1e6, 100*benchTolerance)
	}
	for _, r := range rep.Runs {
		if r.DupFrac >= 0.9 && r.SpeedupX < 1 {
			t.Errorf("dup=%.2f: OVC merge slower than plain (%.2fx)", r.DupFrac, r.SpeedupX)
		}
	}
}
