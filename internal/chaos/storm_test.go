package chaos_test

// The storm battery: a seeded fault storm armed over a live mcsd while
// concurrent retrying clients hammer it. The invariants asserted here
// are the PR 8 acceptance list:
//
//   1. no goroutine outlives the storm (testutil.CheckNoLeaks);
//   2. every successful response — including retried and
//      budget-squeezed ones — is byte-identical to the fault-free
//      oracle;
//   3. every failure is typed: a pipeerr-kinded wire error, an
//      injected cancellation, or the client's own breaker — never an
//      untyped or kind="internal" error;
//   4. the server is healthy after the storm: /readyz recovers within
//      one half-open window and fault-free queries return oracle
//      bytes.
//
// Every storm prints its seed; re-running with the same seed replays
// the same strike mix (see the package comment for what is and is not
// bit-exact under concurrency).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testutil"
)

// stormShapes are the query shapes the battery drives: two order-bys
// (one multi-column ascending, one descending + tiebreak), a group-by
// with an aggregate (exercises the aggregate site), and a partition-by
// with a window (exercises the rank path). Table name is filled in by
// the harness.
func stormShapes(tbl string) []server.QueryRequest {
	return []server.QueryRequest{
		{Table: tbl, Kind: "orderby", SortCols: []server.SortColReq{{Name: "l_returnflag"}, {Name: "l_linestatus"}}},
		{Table: tbl, Kind: "orderby", SortCols: []server.SortColReq{{Name: "l_shipdate", Desc: true}, {Name: "l_orderkey"}}},
		{Table: tbl, Kind: "groupby", SortCols: []server.SortColReq{{Name: "l_returnflag"}, {Name: "l_linestatus"}},
			Agg: &server.AggReq{Kind: "count", Col: "l_quantity"}},
		{Table: tbl, Kind: "partitionby", SortCols: []server.SortColReq{{Name: "l_returnflag"}},
			Window: &server.WindowReq{OrderCol: "l_quantity"}},
	}
}

// canon projects a result down to its engine-produced bytes (no job
// ids, no timings) for oracle comparison.
func canon(res *server.QueryResult) (string, error) {
	b, err := json.Marshal(struct {
		Rows       int        `json:"rows"`
		GroupKeys  [][]uint64 `json:"group_keys,omitempty"`
		Aggregates []uint64   `json:"aggregates,omitempty"`
		Ranks      []uint32   `json:"ranks,omitempty"`
		RowOids    []uint32   `json:"row_oids,omitempty"`
	}{res.Rows, res.GroupKeys, res.Aggregates, res.Ranks, res.RowOids})
	return string(b), err
}

// stormParams sizes one battery run; the tier-1 test and the soak test
// share runStorm and differ only here.
type stormParams struct {
	rows     int
	clients  int
	iters    int           // per client; 0 = run until duration elapses
	duration time.Duration // soak mode
	workers  []int
	chaos    chaos.Config
	server   server.Config
}

type stormTally struct {
	mu         sync.Mutex
	successes  int
	retryFails int // typed wire failures after retries exhausted
	cancels    int // injected ctx cancellations
	fastFails  int // client breaker fail-fasts
	violations []string
}

func (st *stormTally) violate(format string, args ...any) {
	st.mu.Lock()
	st.violations = append(st.violations, fmt.Sprintf(format, args...))
	st.mu.Unlock()
}

// runStorm executes the full battery: oracle, storm, recovery.
func runStorm(t *testing.T, p stormParams) {
	defer testutil.CheckNoLeaks(t)()

	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: p.rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Register(tbl); err != nil {
		t.Fatal(err)
	}
	scfg := p.server
	scfg.Registry = reg
	if scfg.Model == nil {
		scfg.Model = server.BuiltinModel()
	}
	if scfg.MaxPlans == 0 {
		scfg.MaxPlans = 8192
	}
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("post-storm shutdown: %v", err)
		}
	}()

	storm := chaos.New(p.chaos)
	t.Logf("chaos seed: %#x (re-run with this seed to reproduce the strike mix)", storm.Seed())

	// Fault-free oracle per shape. The engine's output is
	// worker-count-invariant (pinned by the PR 5 differential battery),
	// so one oracle per shape covers every worker setting the storm
	// draws.
	shapes := stormShapes(tbl.Name)
	oracleCl, err := client.New(client.Config{BaseURL: hs.URL, Seed: storm.Seed()})
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]string, len(shapes))
	for i, req := range shapes {
		req.Workers = 2
		res, err := oracleCl.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("fault-free oracle for shape %d: %v", i, err)
		}
		if oracles[i], err = canon(res); err != nil {
			t.Fatal(err)
		}
	}

	disarm := storm.Arm()
	tally := &stormTally{}
	var wg sync.WaitGroup
	stopAt := time.Now().Add(p.duration)
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			// Per-client seeded generator for request-shape draws, so
			// clients diverge deterministically from one storm seed.
			rng := chaos.NewRand(storm.Seed() ^ uint64(cid+1)*0x9E3779B97F4A7C15)
			cl, err := client.New(client.Config{
				BaseURL:          hs.URL,
				Seed:             rng.Uint64(),
				MaxRetries:       3,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       20 * time.Millisecond,
				RequestTimeout:   30 * time.Second,
				BreakerThreshold: 50,
				BreakerCooldown:  100 * time.Millisecond,
			})
			if err != nil {
				tally.violate("client %d: %v", cid, err)
				return
			}
			for i := 0; p.iters == 0 || i < p.iters; i++ {
				if p.iters == 0 && time.Now().After(stopAt) {
					return
				}
				shape := rng.Intn(len(shapes))
				req := shapes[shape]
				req.Workers = p.workers[rng.Intn(len(p.workers))]
				req.MaxBytes = storm.Squeeze()
				ctx, cancel := context.WithCancel(context.Background())
				untrack := storm.Track(cancel)
				res, err := cl.Query(ctx, req)
				untrack()
				cancel()
				switch {
				case err == nil:
					got, cerr := canon(res)
					if cerr != nil {
						tally.violate("canon: %v", cerr)
					} else if got != oracles[shape] {
						tally.violate("client %d shape %d (workers=%d, squeeze=%d): result diverged from oracle", cid, shape, req.Workers, req.MaxBytes)
					}
					tally.mu.Lock()
					tally.successes++
					tally.mu.Unlock()
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					tally.mu.Lock()
					tally.cancels++
					tally.mu.Unlock()
				case errors.Is(err, client.ErrBreakerOpen):
					tally.mu.Lock()
					tally.fastFails++
					tally.mu.Unlock()
				default:
					var we *client.Error
					if !errors.As(err, &we) {
						tally.violate("untyped storm failure: %v", err)
					} else if we.Kind == "" || we.Kind == "internal" {
						tally.violate("failure collapsed to kind=%q: %v", we.Kind, err)
					} else {
						tally.mu.Lock()
						tally.retryFails++
						tally.mu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	disarm()

	for _, v := range tally.violations {
		t.Error(v)
	}
	if tally.successes == 0 {
		t.Error("storm produced zero successes; byte-identity was never exercised")
	}
	strikes := counterValue(t, "chaos.strikes")
	if strikes == 0 {
		t.Error("storm produced zero strikes; fault arming is broken")
	}
	t.Logf("storm: %d successes, %d typed failures, %d cancels, %d breaker fast-fails, %d strikes",
		tally.successes, tally.retryFails, tally.cancels, tally.fastFails, strikes)

	// Recovery: /readyz must report ready within one half-open window
	// (breaker cooldown) plus scheduling slack.
	cooldown := scfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	deadline := time.Now().Add(cooldown + 5*time.Second)
	for {
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d after the storm", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Healthy after the storm: every shape returns oracle bytes
	// fault-free.
	for i, req := range shapes {
		req.Workers = 2
		res, err := oracleCl.Query(context.Background(), req)
		if err != nil {
			t.Errorf("post-storm shape %d: %v", i, err)
			continue
		}
		got, err := canon(res)
		if err != nil {
			t.Fatal(err)
		}
		if got != oracles[i] {
			t.Errorf("post-storm shape %d diverged from oracle", i)
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

// TestStormShort is the tier-1 storm: every fault kind armed at every
// site, a few thousand rows, seconds not minutes. The soak build tag
// holds the 60-second, 32-client version of the same battery.
func TestStormShort(t *testing.T) {
	runStorm(t, stormParams{
		rows:    2000,
		clients: 8,
		iters:   10,
		workers: []int{1, 2, 4},
		chaos: chaos.Config{
			Seed:        chaos.DefaultSeed,
			PanicProb:   0.01,
			DelayProb:   0.03,
			CancelProb:  0.01,
			SqueezeProb: 0.15,
			MaxDelay:    time.Millisecond,
		},
		server: server.Config{
			MaxConcurrent:    4,
			WatchdogMult:     200,
			WatchdogFloor:    2 * time.Second,
			BreakerThreshold: 8,
			BreakerCooldown:  200 * time.Millisecond,
		},
	})
}

// TestStormCancelHeavy leans on forced cancellation: no panics, heavy
// cancel strikes, verifying mid-pipeline cancellation under load never
// corrupts a later success.
func TestStormCancelHeavy(t *testing.T) {
	runStorm(t, stormParams{
		rows:    2000,
		clients: 6,
		iters:   8,
		workers: []int{1, 4},
		chaos: chaos.Config{
			Seed:       0xfeedface,
			DelayProb:  0.02,
			CancelProb: 0.06,
			MaxDelay:   time.Millisecond,
		},
		server: server.Config{
			MaxConcurrent:    4,
			WatchdogMult:     200,
			WatchdogFloor:    2 * time.Second,
			BreakerThreshold: 8,
			BreakerCooldown:  200 * time.Millisecond,
		},
	})
}
