// Shard-overhead gate (PR 10): serving a query through a coordinator
// over ONE shard daemon — the degenerate topology, where scatter-gather
// buys nothing — must cost at most benchShardTolerance (10%) over
// running the same query on the daemon directly. That bounds the fixed
// price of distribution: the pin search, the wire round-trips, the
// job-poll cadence, and the merge of a single run.
//
// The probe query is a group-by (small result set), so the gate
// measures coordination overhead rather than result shipping — a
// full-table order-by's wire cost scales with the row count and is a
// bandwidth fact, not a coordination regression. Reps are interleaved
// direct/coordinated and the gate compares the MEDIAN of paired deltas,
// with a small absolute floor so scheduler noise cannot fail the ratio
// alone (same discipline as the chaos-overhead gate). Results land in
// BENCH_pr10.json via `make bench-regress`.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/shard"
)

const (
	benchShardOutput    = "BENCH_pr10.json"
	benchShardTolerance = 0.10
	benchShardRows      = 400_000
	benchShardReps      = 15
	benchShardAbsFloor  = 2 * time.Millisecond
)

type benchShardReport struct {
	Benchmark    string  `json:"benchmark"`
	Rows         int     `json:"rows"`
	Reps         int     `json:"reps"`
	DirectNs     int64   `json:"direct_ns"`
	CoordNs      int64   `json:"coordinated_ns"`
	OverheadFrac float64 `json:"overhead_frac"`
}

func TestBenchShardOverhead(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the benchmark-regression gate")
	}
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: benchShardRows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	newReg := func(full bool) *server.Registry {
		reg := server.NewRegistry()
		target := tbl
		if !full {
			st, err := shard.Slice(tbl, shard.Ranges(tbl.N, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			target = st
		}
		if err := reg.Register(target); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	scfg := func(reg *server.Registry) server.Config {
		return server.Config{
			Registry:      reg,
			Model:         server.BuiltinModel(),
			MaxPlans:      8192,
			MaxConcurrent: 1,
		}
	}

	direct, err := server.New(scfg(newReg(true)))
	if err != nil {
		t.Fatal(err)
	}
	shardSrv, err := server.New(scfg(newReg(false)))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(shardSrv.Handler())
	coord, err := shard.New(shard.Config{
		Registry: newReg(true),
		Shards:   []string{hs.URL},
		Model:    server.BuiltinModel(),
		MaxPlans: 8192,
		Client:   client.Config{PollInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := coord.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := shardSrv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		hs.Close()
		if err := direct.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	req := server.QueryRequest{
		Table:    tbl.Name,
		Kind:     "groupby",
		SortCols: []server.SortColReq{{Name: "l_returnflag"}, {Name: "l_linestatus"}},
		Agg:      &server.AggReq{Kind: "count"},
		Workers:  1,
	}
	canon := func(res *server.QueryResult) []byte {
		b, err := json.Marshal(struct {
			Rows       int        `json:"rows"`
			GroupKeys  [][]uint64 `json:"group_keys"`
			Aggregates []uint64   `json:"aggregates"`
		}{res.Rows, res.GroupKeys, res.Aggregates})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	runDirect := func() (*server.QueryResult, time.Duration) {
		t0 := time.Now()
		res, err := direct.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(t0)
	}
	runCoord := func() (*server.QueryResult, time.Duration) {
		t0 := time.Now()
		res, err := coord.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(t0)
	}

	// Warm both plan caches outside the timed reps — and hold the gate's
	// precondition: the coordinated answer IS the direct answer.
	dres, _ := runDirect()
	cres, _ := runCoord()
	if !bytes.Equal(canon(dres), canon(cres)) {
		t.Fatal("coordinated result diverges from the direct daemon; overhead comparison is meaningless")
	}

	directs := make([]time.Duration, benchShardReps)
	deltas := make([]time.Duration, benchShardReps)
	for r := 0; r < benchShardReps; r++ {
		_, d := runDirect()
		_, c := runCoord()
		directs[r] = d
		deltas[r] = c - d
	}
	medDirect := median(directs)
	medDelta := median(deltas)

	rep := benchShardReport{
		Benchmark:    "serving_one_shard_coordinator_overhead",
		Rows:         benchShardRows,
		Reps:         benchShardReps,
		DirectNs:     medDirect.Nanoseconds(),
		CoordNs:      (medDirect + medDelta).Nanoseconds(),
		OverheadFrac: float64(medDelta) / float64(medDirect),
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	outPath := os.Getenv("BENCH_SHARD_OUT")
	if outPath == "" {
		outPath = benchShardOutput
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: median direct %.2fms, median paired delta %+.3fms (%+.2f%%)",
		outPath, float64(rep.DirectNs)/1e6, float64(medDelta)/1e6, 100*rep.OverheadFrac)

	if medDelta > benchShardAbsFloor && rep.OverheadFrac > benchShardTolerance {
		t.Errorf("one-shard coordination costs %.2f%% (%.2fms) over the direct daemon, gate is %.0f%%",
			100*rep.OverheadFrac, float64(medDelta)/1e6, 100*benchShardTolerance)
	}
}
