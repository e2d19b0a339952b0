// Command mcsd is the MCS query daemon: a long-running concurrent
// query service over WideTables (docs/serving.md). It loads the
// requested workload tables once, shares them read-only across
// queries, memoizes the plan search in an LRU plan cache, and bounds
// concurrent work with an admission controller (queue with
// deadline-aware timeouts, memory-budget worker degradation, graceful
// drain on SIGINT/SIGTERM). Plans are priced by the builtin cost model,
// or by a profile saved with `calibrate -o` and named by -calibration;
// the daemon never calibrates.
//
//	mcsd -addr :8080 -tables tpch -tablerows 60000
//	mcsd -addr :8080 -tables tpch,tpcds,airline -max-concurrent 8 -max-bytes 2147483648
//	mcsd -addr :8080 -tables tpch -calibration prof.json
//
// PR 8 self-healing (docs/robustness.md): a per-query watchdog
// force-cancels queries running far past their predicted cost
// (-watchdog-mult / -watchdog-floor), a contained-panic circuit
// breaker degrades /readyz on repeated panics (-breaker-threshold /
// -breaker-cooldown; a coordinator arms its per-shard client breakers
// with them instead), and -max-queued bounds the admission queue depth
// /readyz reports as saturated. For fault drills, -chaos-seed with
// per-kind probabilities arms an in-process fault storm at every
// pipeline site:
//
//	mcsd -addr :8080 -tables tpch \
//	  -chaos-seed 0xC0FFEE -chaos-panic 0.001 -chaos-delay 0.01
//
// PR 10 sharding (docs/sharding.md): -shard-index/-shard-count serve
// one contiguous row range of every loaded table, and -shards turns
// the daemon into a scatter-gather coordinator over those shards,
// byte-identical to a single-node mcsd from the client's seat:
//
//	mcsd -addr :8081 -tables tpch -shard-index 0 -shard-count 3
//	mcsd -addr :8082 -tables tpch -shard-index 1 -shard-count 3
//	mcsd -addr :8083 -tables tpch -shard-index 2 -shard-count 3
//	mcsd -addr :8080 -tables tpch \
//	  -shards http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Endpoints: POST /query (with Prefer: wait=N, answered with the
// result frame once the job settles), GET /jobs/{id} (a long-poll with
// the same header), GET /jobs/{id}/result (the binary result frame),
// GET /tables, GET /metrics, GET /healthz, GET /livez, GET /readyz.
// Example session — mcsquery submits and waits, decodes the frame and
// prints the result as JSON:
//
//	mcsquery -addr localhost:8080 -full -request '{"table":"tpch_wide","kind":"groupby",
//	  "sort_cols":[{"name":"p_brand"},{"name":"p_size"}],"agg":{"kind":"count"},"workers":4}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/table"
)

// options collects every flag; run takes it whole so adding a knob does
// not ripple through a positional signature.
type options struct {
	addr, tables           string
	tableRows              int
	seed                   int64
	maxConcurrent, workers int
	maxBytes               int64
	planCache, maxPlans    int
	calPath                string
	drainTimeout           time.Duration
	watchdogMult           float64
	watchdogFloor          time.Duration
	breakerThreshold       int
	breakerCooldown        time.Duration
	maxQueued              int
	chaosSeed              uint64
	chaosPanic, chaosDelay float64
	chaosMaxDelay          time.Duration
	shards                 string
	shardIndex, shardCount int
	clientRetries          int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.tables, "tables", "tpch", "comma-separated workloads to load: tpch, tpch-skew, tpcds, airline")
	flag.IntVar(&o.tableRows, "tablerows", 60_000, "rows per generated WideTable")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", runtime.GOMAXPROCS(0), "queries executing at once; excess queries queue")
	flag.Int64Var(&o.maxBytes, "max-bytes", 0, "aggregate estimated-memory budget across executing queries (0 = unlimited)")
	flag.IntVar(&o.workers, "workers", 1, "default per-query worker count (requests may override)")
	flag.IntVar(&o.planCache, "plancache", server.DefaultPlanCacheSize, "plan cache capacity (entries)")
	flag.IntVar(&o.maxPlans, "max-plans", server.DefaultMaxPlans, "counted plan-search budget per query (deterministic, machine-independent)")
	flag.StringVar(&o.calPath, "calibration", "", "price plans with this saved calibration profile instead of the builtin cost model")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown drain budget before running queries are cancelled")
	flag.Float64Var(&o.watchdogMult, "watchdog-mult", 200, "force-cancel a query running this multiple of its predicted cost (0 disables the watchdog)")
	flag.DurationVar(&o.watchdogFloor, "watchdog-floor", 2*time.Second, "minimum watchdog budget regardless of predicted cost")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 8, "single node: consecutive contained panics that degrade /readyz; coordinator: consecutive failed sub-queries to one shard that open its client breaker (0 disables the breaker)")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", time.Second, "how long an open breaker (the panic breaker, or a coordinator's shard breaker) waits before half-open probing")
	flag.IntVar(&o.maxQueued, "max-queued", 0, "admission queue depth /readyz reports as saturated (0 = 8x max-concurrent)")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "arm an in-process fault storm with this seed (0 = no storm unless a -chaos-* probability is set)")
	flag.Float64Var(&o.chaosPanic, "chaos-panic", 0, "per-site-visit injected panic probability")
	flag.Float64Var(&o.chaosDelay, "chaos-delay", 0, "per-site-visit injected delay probability")
	flag.DurationVar(&o.chaosMaxDelay, "chaos-max-delay", 2*time.Millisecond, "upper bound of one injected delay")
	flag.StringVar(&o.shards, "shards", "", "coordinator mode: comma-separated shard base URLs in range order (e.g. http://h1:8081,http://h2:8081)")
	flag.IntVar(&o.shardIndex, "shard-index", -1, "shard mode: serve only rows [i*n/N,(i+1)*n/N) of every loaded table (requires -shard-count)")
	flag.IntVar(&o.shardCount, "shard-count", 0, "shard mode: total shard count N (requires -shard-index)")
	flag.IntVar(&o.clientRetries, "shard-retries", 4, "coordinator mode: per-shard-call retry budget after the first attempt")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "mcsd: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	addr, tables := o.addr, o.tables
	tableRows, seed := o.tableRows, o.seed
	maxConcurrent, maxBytes, workers := o.maxConcurrent, o.maxBytes, o.workers
	planCache, maxPlans := o.planCache, o.maxPlans
	drainTimeout := o.drainTimeout
	// The daemon's whole point is observability of the serving layer;
	// obs is always on and scraped at /metrics.
	obs.Enable()

	m := server.BuiltinModel()
	if o.calPath != "" {
		var err error
		if m, err = costmodel.Load(o.calPath); err != nil {
			return err
		}
	}

	reg := server.NewRegistry()
	for _, w := range strings.Split(tables, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		start := time.Now()
		loaded, err := loadWorkload(w, tableRows, seed)
		if err != nil {
			return err
		}
		for _, t := range loaded {
			if err := reg.Register(t); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "mcsd: loaded table %s (%d rows, %d cols, %d B) in %v\n",
				t.Name, t.N, len(t.Columns()), t.Bytes(), time.Since(start).Round(time.Millisecond))
		}
	}
	if len(reg.Names()) == 0 {
		return fmt.Errorf("no tables loaded (-tables %q)", tables)
	}

	// Shard mode: every loaded table is cut down to this daemon's range
	// before registration-visible serving begins. The coordinator
	// derives the identical ranges from (rows, shard-count) alone.
	if o.shardIndex >= 0 || o.shardCount > 0 {
		if o.shards != "" {
			return fmt.Errorf("-shards (coordinator) and -shard-index/-shard-count (shard) are mutually exclusive")
		}
		if o.shardIndex < 0 || o.shardCount < 1 || o.shardIndex >= o.shardCount {
			return fmt.Errorf("-shard-index %d / -shard-count %d: need 0 <= index < count", o.shardIndex, o.shardCount)
		}
		sliced := server.NewRegistry()
		for _, name := range reg.Names() {
			t, err := reg.Lookup(name)
			if err != nil {
				return err
			}
			r := shard.Ranges(t.N, o.shardCount)[o.shardIndex]
			st, err := shard.Slice(t, r)
			if err != nil {
				return err
			}
			if err := sliced.Register(st); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "mcsd: shard %d/%d serves %s rows [%d,%d)\n",
				o.shardIndex, o.shardCount, st.Name, r.Lo, r.Hi)
		}
		reg = sliced
	}

	if o.shards != "" {
		return runCoordinator(o, reg, m)
	}

	srv, err := server.New(server.Config{
		Registry:         reg,
		Model:            m,
		MaxPlans:         maxPlans,
		MaxConcurrent:    maxConcurrent,
		MaxBytes:         maxBytes,
		DefaultWorkers:   workers,
		PlanCacheSize:    planCache,
		WatchdogMult:     o.watchdogMult,
		WatchdogFloor:    o.watchdogFloor,
		BreakerThreshold: o.breakerThreshold,
		BreakerCooldown:  o.breakerCooldown,
		MaxQueued:        o.maxQueued,
	})
	if err != nil {
		return err
	}

	// Fault drill: arm the seeded storm for the daemon's whole life.
	disarm := armChaos(o)
	defer disarm()

	banner := fmt.Sprintf("serving %v (max-concurrent %d, max-bytes %d)", reg.Names(), maxConcurrent, maxBytes)
	return serveAndDrain(addr, banner, drainTimeout, srv.Handler(), srv.Shutdown)
}

// runCoordinator serves the sharded scatter-gather front: the full
// tables stay loaded for plan pinning and merge-key lookups, but every
// query is fanned out to the -shards daemons and gathered back
// (docs/sharding.md).
func runCoordinator(o options, reg *server.Registry, m *costmodel.Model) error {
	cfg := coordinatorConfig(o, reg, m)
	coord, err := shard.New(cfg)
	if err != nil {
		return err
	}

	disarm := armChaos(o)
	defer disarm()

	banner := fmt.Sprintf("coordinating %v over %d shards %v", reg.Names(), len(cfg.Shards), cfg.Shards)
	return serveAndDrain(o.addr, banner, o.drainTimeout, coord.Handler(), coord.Shutdown)
}

// coordinatorConfig is the coordinator's configuration from the flags;
// -breaker-threshold/-breaker-cooldown arm its per-shard client breakers.
func coordinatorConfig(o options, reg *server.Registry, m *costmodel.Model) shard.Config {
	var shards []string
	for _, s := range strings.Split(o.shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	return shard.Config{
		Registry:       reg,
		Shards:         shards,
		Model:          m,
		MaxPlans:       o.maxPlans,
		DefaultWorkers: o.workers,
		PlanCacheSize:  o.planCache,
		WatchdogMult:   o.watchdogMult,
		WatchdogFloor:  o.watchdogFloor,
		Client:         client.Config{MaxRetries: o.clientRetries, BreakerThreshold: o.breakerThreshold, BreakerCooldown: o.breakerCooldown},
	}
}

// armChaos arms the seeded storm when any chaos flag is set and
// returns the disarm func (a no-op otherwise). The seed is always
// printed so an incident reproduces.
func armChaos(o options) func() {
	if o.chaosSeed == 0 && o.chaosPanic <= 0 && o.chaosDelay <= 0 {
		return func() {}
	}
	storm := chaos.New(chaos.Config{
		Seed:      o.chaosSeed,
		PanicProb: o.chaosPanic,
		DelayProb: o.chaosDelay,
		MaxDelay:  o.chaosMaxDelay,
	})
	disarm := storm.Arm()
	fmt.Fprintf(os.Stderr, "mcsd: CHAOS ARMED seed=%#x panic=%g delay=%g max-delay=%v\n",
		storm.Seed(), o.chaosPanic, o.chaosDelay, o.chaosMaxDelay)
	return disarm
}

// serveAndDrain listens, serves handler, and drains on SIGINT/SIGTERM:
// stop accepting new connections first, then give running queries the
// drain budget before the base context cancels them.
func serveAndDrain(addr, banner string, drainTimeout time.Duration, handler http.Handler, shutdown func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mcsd: %s on %s\n", banner, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "mcsd: %v: draining (budget %v)...\n", sig, drainTimeout)
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(drainCtx)
	if err := shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "mcsd: drain expired, running queries cancelled: %v\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "mcsd: drained cleanly")
	}
	if shutdownErr != nil && shutdownErr != http.ErrServerClosed {
		return shutdownErr
	}
	return nil
}

// loadWorkload generates the named workload's WideTable(s).
func loadWorkload(name string, rows int, seed int64) ([]*table.Table, error) {
	switch name {
	case "tpch":
		t, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Seed: seed})
		if err != nil {
			return nil, err
		}
		return []*table.Table{t}, nil
	case "tpch-skew":
		t, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Skew: true, Seed: seed + 1})
		if err != nil {
			return nil, err
		}
		t.Name = "tpch_skew"
		return []*table.Table{t}, nil
	case "tpcds":
		t, err := datagen.TPCDS(datagen.TPCDSConfig{SF: 1, Rows: rows, Seed: seed + 2})
		if err != nil {
			return nil, err
		}
		return []*table.Table{t}, nil
	case "airline":
		ticket, err := datagen.AirlineTicket(datagen.AirlineConfig{Rows: rows, Seed: seed + 3})
		if err != nil {
			return nil, err
		}
		market, err := datagen.AirlineMarket(datagen.AirlineConfig{Rows: rows, Seed: seed + 3})
		if err != nil {
			return nil, err
		}
		return []*table.Table{ticket, market}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want tpch, tpch-skew, tpcds, or airline)", name)
	}
}
