// The coordinator: the scatter-gather Backend of mcsd's job front. The
// job table, watchdog and HTTP mux are internal/server's Front — the
// one a single mcsd serves through — so this file is only what a
// coordinator does differently: it executes a query by pinning the plan
// search's column order over the full table, fanning the rewritten
// sub-query out to every shard through the retrying client pool, and
// merging the per-shard sorted results back into the bytes a
// single-node run would have produced; it layers the shard_unavailable
// / shard_invalid kinds over the single-node failure taxonomy; and it
// reports not-ready while a shard's client breaker is open
// (docs/sharding.md).
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/server"
)

var (
	obsQueries         = obs.NewCounter("shard.queries")
	obsQueryErrors     = obs.NewCounter("shard.query_errors")
	obsContainedPanics = obs.NewCounter("shard.contained_panics")
	obsFanout          = obs.NewCounter("shard.fanout_subqueries")
	obsExecTime        = obs.NewTimer("shard.exec")
)

// Config tunes a Coordinator.
type Config struct {
	// Registry holds the full (unsharded) tables; required. The
	// coordinator never sorts them — it scans them for filter
	// cardinalities and statistics (plan pinning) and looks sort-key
	// codes up by global oid (cross-shard merging).
	Registry *server.Registry
	// Shards lists the shard daemons' base URLs in range order: shard i
	// must serve rows [i·n/N, (i+1)·n/N) of every registered table
	// (mcsd -shard-index i -shard-count N). Required, at least one.
	Shards []string
	// Model is the cost model the pin search uses; required. It must be
	// the model the equivalence oracle runs with — the pinned order is
	// only the single-node order if both searches cost plans identically.
	Model *costmodel.Model
	// Rho and MaxPlans are the plan-search determinism keystone, exactly
	// as on the single-node server (server.NewPlanCache): 0 is stored as
	// -1 (no wall-clock cutoff), a positive Rho is refused, and a counted
	// budget makes the pinned order a pure function of the query and the
	// statistics.
	Rho      float64
	MaxPlans int
	// DefaultWorkers is the merge-side worker count used when a request
	// does not name one (default 1). The value also travels to the
	// shards inside the sub-queries (0 there means the shard's own
	// default).
	DefaultWorkers int
	// PlanCacheSize bounds the pinned-choice cache
	// (server.DefaultPlanCacheSize when 0).
	PlanCacheSize int
	// WatchdogMult, when > 0, arms a per-query watchdog killing the
	// fan-out once wall time exceeds WatchdogFloor + WatchdogMult ×
	// predicted single-node T_mcs. The budget is deliberately the
	// single-node estimate: N shards sorting n/N rows each finish under
	// it, so a fan-out that overruns it is stuck, not slow.
	WatchdogMult float64
	// WatchdogFloor is the watchdog's minimum kill budget (default 2s
	// when the watchdog is armed).
	WatchdogFloor time.Duration
	// Client configures the per-shard HTTP clients (retry, backoff,
	// breaker). BaseURL and Seed are per-endpoint and filled in by the
	// pool.
	Client client.Config
}

// Coordinator fans queries out over the shards and gathers the
// results. The embedded Front supplies Submit/Status/Result/Wait/Run/
// Shutdown/Handler.
type Coordinator struct {
	*server.Front
	cfg    Config
	pool   *client.Pool
	cache  *server.PlanCache
	ranges map[string][]Range
}

// New validates cfg and returns a ready coordinator. The per-table
// shard ranges are fixed here, from the registered row counts and the
// shard list — the same Ranges formula the shards themselves slice by.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Registry == nil {
		return nil, errors.New("shard: Config.Registry is required")
	}
	if cfg.Model == nil {
		return nil, errors.New("shard: Config.Model is required")
	}
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: Config.Shards is required")
	}
	cache, err := server.NewPlanCache(cfg.Model, cfg.Rho, cfg.MaxPlans, cfg.PlanCacheSize)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if cfg.DefaultWorkers < 1 {
		cfg.DefaultWorkers = 1
	}
	ranges := make(map[string][]Range)
	for _, name := range cfg.Registry.Names() {
		t, err := cfg.Registry.Lookup(name)
		if err != nil {
			return nil, err
		}
		ranges[name] = Ranges(t.N, len(cfg.Shards))
	}
	c := &Coordinator{
		cfg:    cfg,
		pool:   client.NewPool(cfg.Client),
		cache:  cache,
		ranges: ranges,
	}
	c.Front = server.NewFront(server.Backend{
		Registry:        cfg.Registry,
		Execute:         c.execute,
		Classify:        classify,
		Ready:           c.ready,
		Health:          map[string]string{"shards": strconv.Itoa(len(cfg.Shards))},
		Queries:         obsQueries,
		Errors:          obsQueryErrors,
		ContainedPanics: obsContainedPanics,
		WatchdogMult:    cfg.WatchdogMult,
		WatchdogFloor:   cfg.WatchdogFloor,
	})
	return c, nil
}

// PlanCache exposes the coordinator's pinned-choice cache (tests).
func (c *Coordinator) PlanCache() *server.PlanCache { return c.cache }

// shardError tags a failed shard call with its endpoint so the
// taxonomy can tell "a shard failed" (transport faults, refused
// connections — retryable shard_unavailable) from the coordinator's
// own failures. Unwrap keeps the typed chain (client.Error, pipeerr
// sentinels, context errors) reachable through it.
type shardError struct {
	addr string
	err  error
}

func (e *shardError) Error() string { return fmt.Sprintf("shard %s: %v", e.addr, e.err) }
func (e *shardError) Unwrap() error { return e.err }

// ready is the coordinator's readiness probe. Every query needs every
// shard, so a single open client breaker fails all queries fast: the
// coordinator is degraded until that shard's half-open probe succeeds.
func (c *Coordinator) ready() (map[string]any, string) {
	open := c.pool.OpenBreakers()
	if len(open) == 0 {
		return nil, ""
	}
	return map[string]any{"open_shards": open},
		fmt.Sprintf("breaker open on %d of %d shards", len(open), len(c.cfg.Shards))
}

// execute is the Front's executor: pin the plan, fan out, gather. The
// gather is a pipeline: each fan-out worker builds its shard's run
// (gather.buildRun) as soon as the answer is decoded, while slower
// shards are still sorting, and a run that fails validation cancels the
// siblings still waiting on theirs. The merge runs on the Front's
// goroutine once every run is built, inside its containment boundary,
// so a panicking merge — chaos arms the shard.merge site with panics —
// becomes a typed, retryable job failure instead of a process crash; a
// panicking run build is contained by the fan-out group the same way.
// Sub-queries do not re-apply the request timeout: ctx already carries
// the deadline end to end.
func (c *Coordinator) execute(ctx context.Context, jobID string, req server.QueryRequest, markRunning func(), extendWatchdog func(float64)) (*server.QueryResult, error) {
	t, err := c.cfg.Registry.Lookup(req.Table)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", server.ErrInvalidRequest, err)
	}
	if len(req.ColOrder) > 0 {
		// The pin is the coordinator's own job; accepting an external one
		// would let a caller silently diverge the shards from the order
		// the merge keys are built in.
		return nil, fmt.Errorf("%w: col_order is reserved for the coordinator's shard sub-queries", server.ErrInvalidRequest)
	}
	if req.OidsOnly {
		// The coordinator ranks the merged rows itself; its answer always
		// carries ranks.
		return nil, fmt.Errorf("%w: oids_only is reserved for the coordinator's shard sub-queries", server.ErrInvalidRequest)
	}
	q, err := req.ToEngineQuery()
	if err != nil {
		return nil, err
	}
	// Every column the query names is resolved before the fan-out: a
	// misspelt one fails here as the caller's mistake
	// (engine.ErrUnknownColumn, kind "invalid"), not on N shards.
	b, err := engine.Bind(t, q)
	if err != nil {
		return nil, err
	}
	ranges := c.ranges[req.Table]
	if len(ranges) != len(c.cfg.Shards) {
		return nil, fmt.Errorf("%w: %d ranges for %d shards", errShardInvalid, len(ranges), len(c.cfg.Shards))
	}

	workers := req.Workers
	if workers <= 0 {
		workers = c.cfg.DefaultWorkers
	}
	// The coordinator admits nothing itself (the shards do), so the job
	// is running — and the watchdog's floor budget is counting — from
	// here.
	markRunning()

	// LIMIT 0 runs no plan search on the single node, so the coordinator
	// pins nothing either: the fan-out only collects filtered row counts.
	limit0 := req.Limit != nil && *req.Limit == 0
	var choice planner.Choice
	planHit := false
	if !limit0 {
		choice, planHit, err = c.pinnedChoice(ctx, b, req, workers)
		if err != nil {
			return nil, err
		}
	}

	// The plan — and with it the single-node T_mcs estimate — is fixed
	// before any shard starts: one extension, never another mid-flight.
	extendWatchdog(choice.Est)

	execStart := time.Now()
	gth := &gather{sp: newMergeSpec(b, choice.ColOrder), ranges: ranges, countOnly: limit0}
	if q.Window != nil {
		gth.cols = b.Cols
		gth.cut, _ = engine.SortCut(q, req.Limit, req.Offset)
	}
	subs := buildSubRequests(req, q, choice.ColOrder)
	runs := make([][]*run, len(subs))
	for vi := range runs {
		runs[vi] = make([]*run, len(c.cfg.Shards))
	}
	g := pipeerr.NewGroup(ctx)
	for vi := range subs {
		sub := subs[vi]
		for si, addr := range c.cfg.Shards {
			vi, si, addr := vi, si, addr
			g.Go(pipeerr.StageServe, vi, si, func(gctx context.Context) error {
				faultinject.Fire(faultinject.ShardFanout)
				obsFanout.Inc()
				cl, err := c.pool.For(addr)
				if err != nil {
					return &shardError{addr: addr, err: err}
				}
				r, err := cl.Query(gctx, sub)
				if err != nil {
					return &shardError{addr: addr, err: err}
				}
				runs[vi][si], err = gth.buildRun(gctx, si, r)
				return err
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}

	faultinject.Fire(faultinject.ShardMerge)

	rows := 0
	for _, r := range runs[0] {
		if r == nil {
			return nil, fmt.Errorf("%w: missing shard result", errShardInvalid)
		}
		rows += r.rows
	}

	res := &server.QueryResult{
		JobID:        jobID,
		Table:        req.Table,
		Rows:         rows,
		Workers:      workers,
		Plan:         choice.Plan.String(),
		ColOrder:     choice.ColOrder,
		PlanCacheHit: planHit,
	}
	if limit0 {
		// Match the single-node LIMIT 0 result: filtered row count, no
		// data, the zero plan's rendering.
		res.Plan = plan.Plan{}.String()
		res.ColOrder = nil
		res.ExecNS = time.Since(execStart).Nanoseconds()
		return res, nil
	}

	span := obsMerge.Start()
	if q.Window != nil {
		res.Ranks, res.RowOids, err = mergeWindowRuns(ctx, runs[0], gth, req.Limit, req.Offset, workers)
	} else {
		res.GroupKeys, res.Aggregates, err = mergeGroupParts(ctx, q, req, gth, runs, workers)
	}
	span.End()
	if err != nil {
		return nil, err
	}
	obsExecTime.Add(time.Since(execStart))
	res.ExecNS = time.Since(execStart).Nanoseconds()
	return res, nil
}

// buildSubRequests rewrites req into the per-shard sub-queries of one
// fan-out wave. Every shape becomes one sub-query except avg, which
// needs two (global avg = global sum / global count, and neither is a
// function of per-shard avgs).
//
// LIMIT/OFFSET rewriting: a shard cannot apply the global offset (it
// cannot know how many rows the other shards contribute before it),
// so sub-queries ask for the first offset+limit entries and the
// coordinator's merge re-applies the window. Any entry within the
// global cut is within each holder's local cut (a shard's entries are
// a subsequence of the global order), so the pre-cut loses nothing.
// ORDER BY <agg> sorts by a value only the gather knows, so those
// sub-queries drop the cut and the agg-sort entirely and return full
// key-ordered group tables. Window sub-queries ask for oids only: the
// coordinator ranks the merged rows from their keys (unpackWindow).
func buildSubRequests(req server.QueryRequest, q engine.Query, pin []int) []server.QueryRequest {
	sub := req
	sub.TimeoutMS = 0
	sub.ColOrder = nil
	if len(pin) > 0 {
		sub.ColOrder = append([]int(nil), pin...)
	}
	sub.OidsOnly = q.Window != nil
	sub.OrderByAgg = false
	sub.Limit, sub.Offset = nil, 0
	if req.Limit != nil && !req.OrderByAgg {
		// The rank the single node's sort would stop at; 0 for LIMIT 0.
		rows, groups := engine.SortCut(q, req.Limit, req.Offset)
		cut := rows + groups // one of the two is zero
		sub.Limit = &cut
	}
	if req.Agg != nil && req.Agg.Kind == "avg" {
		cnt := sub
		cnt.Agg = &server.AggReq{Kind: "count"}
		sum := sub
		sum.Agg = &server.AggReq{Kind: "sum", Col: req.Agg.Col}
		return []server.QueryRequest{cnt, sum}
	}
	return []server.QueryRequest{sub}
}

// mergeGroupParts merges the per-shard group runs into the global
// table: cross-check avg's two sub-queries, merge-and-combine, then
// re-apply the pieces the sub-queries stripped (the aggregate sort of
// ORDER BY <agg>, the avg division, the LIMIT/OFFSET window).
func mergeGroupParts(ctx context.Context, q engine.Query, req server.QueryRequest, g *gather, runs [][]*run, workers int) ([][]uint64, []uint64, error) {
	avg := q.Agg != nil && q.Agg.Kind == engine.Avg
	if avg {
		for si := range runs[0] {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if err := attachAux(runs[0][si], runs[1][si], si); err != nil {
				return nil, nil, err
			}
		}
	}

	merged, err := mergeGroupRuns(ctx, runs[0], g, workers)
	if err != nil {
		return nil, nil, err
	}
	if avg {
		// merged.agg is the global count, merged.aux the global sum;
		// the engine's per-group arithmetic is sum / row-count.
		for gi := range merged.agg {
			if gi&(mergeCtxStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
			}
			if merged.agg[gi] == 0 {
				return nil, nil, fmt.Errorf("%w: avg group with zero count", errShardInvalid)
			}
			merged.agg[gi] = merged.aux[gi] / merged.agg[gi]
		}
	}
	if q.OrderByAgg {
		// Re-apply the aggregate sort the sub-queries stripped with the
		// engine's own function over the merged groups — which are in
		// global key order, the order the single node's aggregate sort
		// starts from.
		if merged.keys, merged.agg, err = engine.SortGroupsByAggregate(ctx, merged.keys, merged.agg); err != nil {
			return nil, nil, err
		}
	}

	lo, hi := engine.OutputWindow(len(merged.keys), req.Limit, req.Offset)
	return merged.keys[lo:hi], merged.agg[lo:hi], nil
}

// classify is the coordinator's Backend classifier: the single-node
// taxonomy with the shard layer over it. Shard failures with a typed
// kind propagate it (a budget refusal on a shard is a budget refusal of
// the query) with the shard's own retryability verdict and the status
// the taxonomy gives that kind; unreachable or
// unresponsive shards — transport faults, open breakers — become the
// retryable "shard_unavailable" (503, the conventional "upstream is
// down, retry later"); a malformed shard response — a result frame that
// violates the format (the coordinator reads frames from its shards
// only) or a well-formed one the merge's validation refuses — is
// "shard_invalid" (502, not retryable); everything the coordinator
// fails at itself keeps the single-node classification.
func classify(err error) (kind string, retryable bool, status int) {
	kind, retryable, status = server.Classify(err)
	var ce *client.Error
	var se *shardError
	switch {
	case errors.Is(err, errShardInvalid), errors.Is(err, server.ErrBadFrame):
		return "shard_invalid", false, http.StatusBadGateway
	case errors.As(err, &ce):
		retryable = ce.Retryable
		if ce.Kind != "" && ce.Kind != "internal" {
			kind = ce.Kind
			if c, ok := server.ClassOfKind(kind); ok {
				status = c.Status
			}
		} else {
			kind = "shard_unavailable"
		}
	case errors.Is(err, client.ErrBreakerOpen):
		kind, retryable = "shard_unavailable", true
	case errors.As(err, &se) && !pipeerr.IsCtxErr(se.err):
		kind, retryable = "shard_unavailable", true
	}
	if kind == "shard_unavailable" {
		status = http.StatusServiceUnavailable
	}
	return kind, retryable, status
}
