// Chaos-overhead gate (PR 8): the self-healing machinery — per-query
// watchdog, contained-panic breaker, and the compiled-in faultinject
// sites — must be effectively free when nothing is armed. The gate
// measures the PR 5 serving path (server.Run over a seeded TPC-H
// WideTable) twice in the same process:
//
//   - baseline: watchdog and breaker disabled, fault registry disarmed
//     (the pre-PR 8 serving configuration);
//   - guarded: watchdog and breaker enabled at serving defaults, fault
//     registry still disarmed (the post-PR 8 production default).
//
// Reps are interleaved baseline/guarded so thermal and scheduler drift
// hit both sides equally, and the gate compares the MEDIAN of the
// paired per-rep deltas (guarded minus baseline, measured back to
// back) — the median is robust to the GC-phase outliers that make
// best-of-reps flap at these run times. The guarded path may cost at
// most benchChaosTolerance (1%) over the median baseline — with a
// small absolute floor so sub-scheduler-quantum deltas on a fast
// machine cannot fail the ratio on noise alone. Results land in
// BENCH_pr8.json via `make bench-regress`.
package repro

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/server"
)

const (
	benchChaosOutput    = "BENCH_pr8.json"
	benchChaosTolerance = 0.01
	benchChaosRows      = 400_000
	benchChaosReps      = 15
	// Deltas under this are scheduler noise at these run times, not
	// watchdog overhead; the ratio gate only applies above it.
	benchChaosAbsFloor = 2 * time.Millisecond
)

type benchChaosReport struct {
	Benchmark    string  `json:"benchmark"`
	Rows         int     `json:"rows"`
	Reps         int     `json:"reps"`
	BaselineNs   int64   `json:"baseline_ns"`
	GuardedNs    int64   `json:"guarded_ns"`
	OverheadFrac float64 `json:"overhead_frac"`
}

// benchChaosServer builds one serving stack (deterministic builtin
// model; a server's search reads no clock) with or without the PR 8 guards.
func benchChaosServer(tb testing.TB, reg *server.Registry, guarded bool) *server.Server {
	tb.Helper()
	cfg := server.Config{
		Registry:      reg,
		Model:         server.BuiltinModel(),
		MaxPlans:      8192,
		MaxConcurrent: 1,
	}
	if guarded {
		cfg.WatchdogMult = 200
		cfg.WatchdogFloor = 2 * time.Second
		cfg.BreakerThreshold = 8
		cfg.BreakerCooldown = time.Second
	}
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func TestBenchChaosOverhead(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the benchmark-regression gate")
	}
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: benchChaosRows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Register(tbl); err != nil {
		t.Fatal(err)
	}
	baseline := benchChaosServer(t, reg, false)
	guarded := benchChaosServer(t, reg, true)
	shutdown := func(s *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}
	defer shutdown(baseline)
	defer shutdown(guarded)

	req := server.QueryRequest{
		Table:    tbl.Name,
		Kind:     "orderby",
		SortCols: []server.SortColReq{{Name: "l_returnflag"}, {Name: "l_shipdate"}},
		Workers:  1,
	}
	measure := func(s *server.Server) time.Duration {
		t0 := time.Now()
		if _, err := s.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	// Warm both plan caches outside the timed reps.
	measure(baseline)
	measure(guarded)
	bases := make([]time.Duration, benchChaosReps)
	deltas := make([]time.Duration, benchChaosReps)
	for r := 0; r < benchChaosReps; r++ {
		b := measure(baseline)
		g := measure(guarded)
		bases[r] = b
		deltas[r] = g - b
	}
	medBase := median(bases)
	medDelta := median(deltas)

	rep := benchChaosReport{
		Benchmark:    "serving_chaos_disarmed_overhead",
		Rows:         benchChaosRows,
		Reps:         benchChaosReps,
		BaselineNs:   medBase.Nanoseconds(),
		GuardedNs:    (medBase + medDelta).Nanoseconds(),
		OverheadFrac: float64(medDelta) / float64(medBase),
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	outPath := os.Getenv("BENCH_CHAOS_OUT")
	if outPath == "" {
		outPath = benchChaosOutput
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: median baseline %.2fms, median paired delta %+.3fms (%+.2f%%)",
		outPath, float64(rep.BaselineNs)/1e6, float64(medDelta)/1e6, 100*rep.OverheadFrac)

	if medDelta > benchChaosAbsFloor && rep.OverheadFrac > benchChaosTolerance {
		t.Errorf("disarmed chaos/watchdog path costs %.2f%% (%.2fms) over baseline, gate is %.0f%%",
			100*rep.OverheadFrac, float64(medDelta)/1e6, 100*benchChaosTolerance)
	}
}

// median returns the middle element (reps are odd); it sorts a copy.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
