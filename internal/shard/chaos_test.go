package shard

// The cross-shard storm: a seeded fault storm armed over a live
// 3-shard topology — strikes land in the coordinator's fan-out and
// merge sites AND inside the shard daemons' own pipeline sites — while
// concurrent retrying clients hammer the coordinator. Invariants, as in
// the single-node storm battery:
//
//  1. no goroutine outlives the storm;
//  2. every success — including ones that only succeeded on a retry
//     after a shard strike — is byte-identical to the fault-free
//     single-node engine oracle;
//  3. every failure is typed: never an untyped error, never
//     kind="internal";
//  4. the topology is healthy after the storm: fault-free queries
//     return oracle bytes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testutil"
)

// shardStormShapes: one shape per merge path — packed order-by, packed
// group-by with the dual-fan-out avg, a window rank, and a wide-key
// group-by.
func shardStormShapes() []struct {
	tbl int
	req server.QueryRequest
} {
	return []struct {
		tbl int
		req server.QueryRequest
	}{
		{0, server.QueryRequest{Table: "narrow0", Kind: "orderby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b", Desc: true}}}},
		{1, server.QueryRequest{Table: "narrow99", Kind: "groupby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
			Agg:      &server.AggReq{Kind: "avg", Col: "v"}}},
		{1, server.QueryRequest{Table: "narrow99", Kind: "partitionby",
			SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
			Window:   &server.WindowReq{OrderCol: "c", Desc: true}}},
		{2, server.QueryRequest{Table: "wide", Kind: "groupby",
			SortCols: []server.SortColReq{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}, {Name: "w4"}, {Name: "w5"}},
			Agg:      &server.AggReq{Kind: "count"}}},
	}
}

// canonBytes is canonServer without t.Fatal, safe on storm-client
// goroutines.
func canonBytes(res *server.QueryResult) (string, error) {
	b, err := json.Marshal(resultData{Rows: res.Rows, GroupKeys: res.GroupKeys,
		Aggregates: res.Aggregates, Ranks: res.Ranks, RowOids: res.RowOids})
	return string(b), err
}

type shardStormParams struct {
	shards   int
	clients  int
	iters    int           // per client; 0 = run until duration elapses
	duration time.Duration // soak mode
	workers  []int
	chaos    chaos.Config
}

// runShardStorm executes oracle → storm → recovery over a sharded
// topology.
func runShardStorm(t *testing.T, p shardStormParams) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, p.shards, Config{
		WatchdogMult:  200,
		WatchdogFloor: 2 * time.Second,
		Client: client.Config{
			MaxRetries:   3,
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   10 * time.Millisecond,
			PollInterval: time.Millisecond,
		},
	})
	defer done()
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()

	storm := chaos.New(p.chaos)
	t.Logf("chaos seed: %#x (re-run with this seed to reproduce the strike mix)", storm.Seed())

	// Fault-free oracle per shape, straight from the engine: under the
	// storm the whole serving stack — coordinator and shards alike — is
	// suspect, so the ground truth bypasses it entirely.
	shapes := shardStormShapes()
	oracles := make([]string, len(shapes))
	for i, s := range shapes {
		oracles[i] = string(runOracle(t, tables[s.tbl], s.req, 4))
	}

	fanoutBefore := counterValue(t, "shard.fanout_subqueries")
	disarm := storm.Arm()
	var (
		mu         sync.Mutex
		successes  int
		typedFails int
		cancels    int
		fastFails  int
		violations []string
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var wg sync.WaitGroup
	stopAt := time.Now().Add(p.duration)
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			rng := chaos.NewRand(storm.Seed() ^ uint64(cid+1)*0x9E3779B97F4A7C15)
			cl, err := client.New(client.Config{
				BaseURL:          hs.URL,
				Seed:             rng.Uint64(),
				MaxRetries:       3,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       20 * time.Millisecond,
				RequestTimeout:   30 * time.Second,
				PollInterval:     time.Millisecond,
				BreakerThreshold: 50,
				BreakerCooldown:  100 * time.Millisecond,
			})
			if err != nil {
				violate("client %d: %v", cid, err)
				return
			}
			for i := 0; p.iters == 0 || i < p.iters; i++ {
				if p.iters == 0 && time.Now().After(stopAt) {
					return
				}
				shape := rng.Intn(len(shapes))
				req := shapes[shape].req
				req.Workers = p.workers[rng.Intn(len(p.workers))]
				ctx, cancel := context.WithCancel(context.Background())
				untrack := storm.Track(cancel)
				res, err := cl.Query(ctx, req)
				untrack()
				cancel()
				switch {
				case err == nil:
					got, cerr := canonBytes(res)
					if cerr != nil {
						violate("canon: %v", cerr)
					} else if got != oracles[shape] {
						violate("client %d shape %d (workers=%d): result diverged from the fault-free oracle", cid, shape, req.Workers)
					}
					mu.Lock()
					successes++
					mu.Unlock()
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					mu.Lock()
					cancels++
					mu.Unlock()
				case errors.Is(err, client.ErrBreakerOpen):
					mu.Lock()
					fastFails++
					mu.Unlock()
				default:
					var we *client.Error
					if !errors.As(err, &we) {
						violate("untyped storm failure: %v", err)
					} else if we.Kind == "" || we.Kind == "internal" {
						violate("failure collapsed to kind=%q: %v", we.Kind, err)
					} else {
						mu.Lock()
						typedFails++
						mu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	disarm()

	for _, v := range violations {
		t.Error(v)
	}
	if successes == 0 {
		t.Error("storm produced zero successes; byte-identity was never exercised")
	}
	if counterValue(t, "chaos.strikes") == 0 {
		t.Error("storm produced zero strikes; shard-site arming is broken")
	}
	if counterValue(t, "shard.fanout_subqueries") == fanoutBefore {
		t.Error("coordinator fan-out never ran during the storm")
	}
	t.Logf("shard storm: %d successes, %d typed failures, %d cancels, %d breaker fast-fails",
		successes, typedFails, cancels, fastFails)

	// Healthy after the storm: every shape returns oracle bytes
	// fault-free, through the same coordinator.
	for i, s := range shapes {
		req := s.req
		req.Workers = 4
		res, err := coord.Run(context.Background(), req)
		if err != nil {
			t.Errorf("post-storm shape %d: %v", i, err)
			continue
		}
		got, err := canonBytes(res)
		if err != nil {
			t.Fatal(err)
		}
		if got != oracles[i] {
			t.Errorf("post-storm shape %d diverged from the oracle", i)
		}
	}
}

func counterValue(t *testing.T, name string) int64 {
	t.Helper()
	for _, c := range obs.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not registered", name)
	return 0
}

// TestShardStormShort is the tier-1 cross-shard storm.
func TestShardStormShort(t *testing.T) {
	runShardStorm(t, shardStormParams{
		shards:  3,
		clients: 6,
		iters:   8,
		workers: []int{1, 4},
		chaos: chaos.Config{
			Seed:       chaos.DefaultSeed,
			PanicProb:  0.01,
			DelayProb:  0.03,
			CancelProb: 0.01,
			MaxDelay:   time.Millisecond,
		},
	})
}

// TestKilledShardSurfacesTypedError: a topology whose shard dies
// mid-flight must fail queries with the retryable shard_unavailable
// taxonomy (503 on the wire), not an untyped transport error — and
// keep serving once the query targets only live state again.
func TestKilledShardSurfacesTypedError(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)

	var shardSrvs []*server.Server
	var shardHTTP []*httptest.Server
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		reg := server.NewRegistry()
		for _, tbl := range tables {
			st, err := Slice(tbl, Ranges(tbl.N, 2)[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := server.New(server.Config{
			Registry: reg, Model: server.BuiltinModel(),
			MaxPlans: testMaxPlans, MaxConcurrent: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		shardSrvs = append(shardSrvs, srv)
		shardHTTP = append(shardHTTP, hs)
		urls[i] = hs.URL
	}
	defer func() {
		for i := len(shardSrvs) - 1; i >= 0; i-- {
			if err := shardSrvs[i].Shutdown(context.Background()); err != nil {
				t.Errorf("shard %d shutdown: %v", i, err)
			}
			shardHTTP[i].Close()
		}
	}()

	fullReg := server.NewRegistry()
	for _, tbl := range tables {
		if err := fullReg.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := New(Config{
		Registry: fullReg, Shards: urls,
		Model: server.BuiltinModel(), MaxPlans: testMaxPlans,
		Client: client.Config{
			MaxRetries:   1,
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   2 * time.Millisecond,
			PollInterval: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := coord.Shutdown(context.Background()); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	}()

	req := server.QueryRequest{Table: "narrow0", Kind: "orderby",
		SortCols: []server.SortColReq{{Name: "a"}, {Name: "b", Desc: true}}, Workers: 2}
	want := runOracle(t, tables[0], req, 2)
	ctx := context.Background()
	res, err := coord.Run(ctx, req)
	if err != nil {
		t.Fatalf("pre-kill query: %v", err)
	}
	if got := canonServer(t, res); string(got) != string(want) {
		t.Fatalf("pre-kill result diverges from oracle")
	}

	// Kill shard 1: in-flight connections die, new ones are refused.
	if err := shardSrvs[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	shardHTTP[1].Close()

	_, err = coord.Run(ctx, req)
	if err == nil {
		t.Fatal("query over a killed shard succeeded")
	}
	kind, retryable, status := classify(err)
	if kind != "shard_unavailable" {
		t.Errorf("killed shard: kind %q, want shard_unavailable (err: %v)", kind, err)
	}
	if !retryable {
		t.Errorf("killed shard: error not retryable: %v", err)
	}
	if status != 503 {
		t.Errorf("killed shard: status %d, want 503", status)
	}
	var se *shardError
	if !errors.As(err, &se) {
		t.Errorf("killed shard: error does not identify the shard: %v", err)
	} else if se.addr != urls[1] {
		t.Errorf("killed shard: error names %s, want %s", se.addr, urls[1])
	}
}
