// Benchmark harness for the parallel MCS pipeline on a fixed 1M-row,
// 4-column sort: BenchmarkPipeline1Mx4 (`make bench`, one sub-benchmark
// per worker count) and the relative gates of `make bench-regress` —
// each compares two measurements taken in the same process (truncated
// vs full sort, OVC on vs off), never a number committed on another
// day or machine: on a shared box only interleaved comparisons are
// evidence (bench/mcsperf's `compare` for end-to-end figures).
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
	"repro/internal/mergesort/paper"
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
// the given worker count.
func measurePipeline(tb testing.TB, inputs []massage.Input, workers, reps int) time.Duration {
	tb.Helper()
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := mcsort.ExecuteContext(context.Background(), inputs, benchPlan, mcsort.Options{Workers: workers}); err != nil {
			tb.Fatal(err)
		}
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
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

// --- Top-K sweep ----------------------------------------------------
//
// TestBenchTopK measures LIMIT-aware execution (mcsort.Options.LimitRows,
// docs/topk.md) against the full sort on the 1M-row 4-column workload,
// swept over K in {1, 100, 10k} and duplicate fractions {0, 0.99}.
// Gate: the truncated path must be at least 2x faster than the full
// sort at K=100 (unique keys, single worker — the serving case).
// Results land in BENCH_pr7.json.

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
	Benchmark string         `json:"benchmark"`
	Rows      int            `json:"rows"`
	Widths    []int          `json:"widths"`
	Plan      string         `json:"plan"`
	Runs      []benchTopKRun `json:"sweep"`
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

	var gate100 float64
	for _, dup := range []float64{0, 0.99} {
		inputs := benchDupInputs(dup)
		for _, workers := range []int{1, 4} {
			full := measurePipeline(t, inputs, workers, benchReps)
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
		must(mergesort.SortScratchContext(context.Background(), 32, keys[runs[r]:runs[r+1]], oids[runs[r]:runs[r+1]], mergesort.Params{}, nil))
	}
	return keys, oids, runs
}

// benchOVCPair times the plain and the offset-value-coded merge
// back to back, rep by rep, so slow drift (thermal, scheduler) hits
// both sides equally; it returns the best rep of each. One untimed
// warmup pass faults in the working buffers first.
func benchOVCPair(keys []uint64, oids []uint32, runs []int, reps int) (off, on time.Duration) {
	pOff := paper.Params{DisableOVC: true}
	pOn := paper.Params{}
	k := make([]uint64, len(keys))
	o := make([]uint32, len(oids))
	measure := func(p paper.Params) time.Duration {
		copy(k, keys)
		copy(o, oids)
		t0 := time.Now()
		must(paper.MergePacked(context.Background(), 32, k, o, runs, p))
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
