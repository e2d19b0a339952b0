// Server core: the single-node Backend of the job front (front.go).
// The Front owns the job table, watchdog and HTTP mux; this file
// supplies what a single mcsd does with a query — admission, the plan
// cache deciding whether the plan search runs or a memoized choice is
// replayed via PlanOverride, and exactly one engine.RunContext call —
// plus the server's failure taxonomy and its readiness probe (the
// contained-panic breaker and the admission queue depth).
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/planner"
)

var (
	obsServerQueries   = obs.NewCounter("server.queries")
	obsServerErrors    = obs.NewCounter("server.query_errors")
	obsExecTime        = obs.NewTimer("server.exec")
	obsContainedPanics = obs.NewCounter("server.contained_panics")
)

// DefaultMaxPlans is the counted plan-search budget when
// Config.MaxPlans is 0: enough to search small clauses exhaustively
// while keeping a 7-column free-order clause (the paper's widest)
// bounded.
const DefaultMaxPlans = 1 << 16

// ServedRho is the plan-search ρ a daemon stores for a configured one:
// a served search never reads the clock, so 0 becomes -1 (no
// threshold) and a positive value is refused.
func ServedRho(rho float64) (float64, error) {
	switch {
	case rho > 0:
		return 0, fmt.Errorf("Rho %g: a served plan search reads no clock (0 or negative)", rho)
	case rho == 0:
		return -1, nil
	}
	return rho, nil
}

// BuiltinModel returns costmodel.Builtin, the fixed-constant cost model
// mcsd uses unless -calibration names a saved profile.
func BuiltinModel() *costmodel.Model { return costmodel.Builtin() }

// Config tunes a Server.
type Config struct {
	// Registry holds the queryable tables; required.
	Registry *Registry
	// Model is the cost model every plan search uses, fixed for the
	// server's life; required (mcsd passes BuiltinModel or a profile
	// loaded at startup).
	Model *costmodel.Model
	// Rho is the plan-search time threshold (planner.Search.Rho). A
	// served search never reads the clock: New stores 0 as -1 (no
	// threshold) and refuses a positive value, so the search outcome
	// never depends on machine speed.
	Rho float64
	// MaxPlans is the counted plan-search budget (engine.Options
	// .MaxPlans, DefaultMaxPlans when 0). Without a clock it makes plan
	// choice deterministic: repeated identical queries pick identical
	// plans, so a plan-cache hit can never change a query's result —
	// only skip the search. It also bounds the m!-order search of wide
	// GROUP BY clauses, which is combinatorially infeasible to run
	// exhaustively.
	MaxPlans int
	// MaxConcurrent bounds the number of queries executing at once
	// (default 1). Excess queries wait in the admission queue.
	MaxConcurrent int
	// MaxBytes bounds the aggregate estimated transient footprint of
	// all executing queries; <= 0 means unlimited. A query that cannot
	// fit alone even sequentially is refused with
	// pipeerr.ErrBudgetExceeded.
	MaxBytes int64
	// DefaultWorkers is the per-query worker count used when a request
	// does not name one (default 1).
	DefaultWorkers int
	// PlanCacheSize bounds the plan cache (DefaultPlanCacheSize when 0).
	PlanCacheSize int
	// WatchdogMult, when > 0, arms a per-query watchdog that
	// force-cancels execution once its wall time exceeds
	// WatchdogFloor + WatchdogMult × predicted T_mcs (the cost model's
	// estimate for the chosen plan). The kill surfaces as the typed,
	// retryable pipeerr.ErrWatchdog. 0 disables the watchdog.
	WatchdogMult float64
	// WatchdogFloor is the watchdog's minimum kill budget: it covers
	// the stages the T_mcs estimate does not (filter scans, aggregation)
	// and is the whole budget until the plan is chosen. Default 2s when
	// the watchdog is armed.
	WatchdogFloor time.Duration
	// BreakerThreshold trips the readiness breaker after this many
	// consecutive contained panics (serve-layer or worker): /readyz
	// reports degraded until a cooldown passes and a panic-free query
	// completes. 0 disables the breaker. The breaker is advisory —
	// queries keep executing while it is open.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before going
	// half-open (default 1s).
	BreakerCooldown time.Duration
	// MaxQueued is the admission-queue depth beyond which /readyz
	// reports saturation (default 8 × MaxConcurrent; < 0 disables the
	// check).
	MaxQueued int
}

// Server is a concurrent query service over registered tables: a Front
// whose Backend executes on the local engine.
type Server struct {
	*Front
	cfg     Config
	cache   *PlanCache
	adm     *admission
	breaker *panicBreaker
}

// New validates cfg and returns a ready server.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("server: Config.Registry is required")
	}
	if cfg.Model == nil {
		return nil, errors.New("server: Config.Model is required")
	}
	var err error
	if cfg.Rho, err = ServedRho(cfg.Rho); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.DefaultWorkers < 1 {
		cfg.DefaultWorkers = 1
	}
	if cfg.MaxPlans <= 0 {
		cfg.MaxPlans = DefaultMaxPlans
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 8 * cfg.MaxConcurrent
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewPlanCache(cfg.PlanCacheSize),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxBytes),
		breaker: newPanicBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	s.Front = NewFront(Backend{
		Registry:        cfg.Registry,
		Execute:         s.execute,
		Classify:        Classify,
		Ready:           s.ready,
		OnClose:         s.adm.close,
		Queries:         obsServerQueries,
		Errors:          obsServerErrors,
		ContainedPanics: obsContainedPanics,
		WatchdogMult:    cfg.WatchdogMult,
		WatchdogFloor:   cfg.WatchdogFloor,
	})
	return s, nil
}

// PlanCache exposes the server's plan cache (tests and /metrics-side
// introspection).
func (s *Server) PlanCache() *PlanCache { return s.cache }

// ready is the single node's readiness probe: degraded while the
// contained-panic breaker is open or the admission queue is saturated.
// The breaker's half-open state counts as ready — readiness is advisory
// and the server kept executing queries the whole time; one panic-free
// query closes it, one more panic re-opens it.
func (s *Server) ready() (map[string]any, string) {
	queued := s.adm.queued()
	br := s.breaker.state()
	detail := map[string]any{"breaker": br.String(), "queued": queued}
	switch {
	case br == breakerOpen:
		return detail, "breaker open: repeated contained panics"
	case s.cfg.MaxQueued > 0 && queued > s.cfg.MaxQueued:
		return detail, "admission queue saturated"
	}
	return detail, ""
}

// execute is the Front's executor: resolve the table, consult the plan
// cache, pass admission, and call engine.RunContext. Every outcome
// feeds the readiness breaker: a contained worker panic surfaces as
// *PipelineError and a serve-layer panic unwinds through here to the
// Front's recover, and both count; other failures (cancellations,
// refusals) are not health signals and leave the consecutive-panic
// count alone.
func (s *Server) execute(ctx context.Context, jobID string, req QueryRequest, markRunning func(), extendWatchdog func(float64)) (res *QueryResult, err error) {
	panicked := true
	defer func() {
		var pe *pipeerr.PipelineError
		switch {
		case panicked || errors.As(err, &pe):
			s.breaker.recordPanic()
		case err == nil:
			s.breaker.recordSuccess()
		}
	}()
	res, err = s.runEngine(ctx, jobID, req, markRunning, extendWatchdog)
	panicked = false
	return res, err
}

func (s *Server) runEngine(ctx context.Context, jobID string, req QueryRequest, markRunning func(), extendWatchdog func(float64)) (*QueryResult, error) {
	t, err := s.cfg.Registry.Lookup(req.Table)
	if err != nil {
		// An unknown table is the caller's mistake, not a server fault:
		// classify it with the validation failures (400, kind
		// "invalid", not retryable), not as kind "internal".
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	q, err := req.ToEngineQuery()
	if err != nil {
		return nil, err
	}
	// Every column the query names is resolved here, before admission: a
	// misspelt one fails as the caller's mistake (engine.ErrUnknownColumn,
	// kind "invalid") without ever taking a slot.
	b, err := engine.Bind(t, q)
	if err != nil {
		return nil, err
	}

	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	// Worst-case footprint: every table row selected, one round per
	// 16-bit slice of the concatenated key (no plan can have more). No
	// query materializes its sort columns, so none are charged.
	totalW := 0
	for _, bs := range b.Cols {
		totalW += bs.Width
	}
	maxRounds := max((totalW+15)/16, len(b.Cols))
	estimate := func(w int) int64 { return engine.EstimatePipelineBytes(t.N, maxRounds, w) }
	workers, err = s.adm.refuseOverBudget(workers, estimate)
	if err != nil {
		return nil, err
	}
	est := estimate(workers)

	// Admission: queue until a slot and the bytes are free, honoring
	// the request deadline while queued (typed ErrQueueTimeout).
	release, queueWait, err := s.adm.admit(ctx, est)
	if err != nil {
		return nil, err
	}
	defer release()
	markRunning()

	// LIMIT 0 queries never run a plan search (the engine returns the
	// empty result straight after the filter), so they neither consult
	// nor populate the plan cache — a zero-value plan must not be
	// memoized under their key, which is the unlimited query's.
	cacheable := req.Limit == nil || *req.Limit > 0
	key := b.PlanKey(req.Limit, req.Offset, req.ColOrder)
	var choice planner.Choice
	hit := false
	if cacheable {
		choice, hit = s.cache.Get(key)
	}
	opts := engine.Options{
		Massaging: true,
		Model:     s.cfg.Model,
		Rho:       s.cfg.Rho,
		MaxPlans:  s.cfg.MaxPlans,
		Workers:   workers,
		MaxBytes:  maxQueryBytes(req.MaxBytes, s.cfg.MaxBytes, est),
		Offset:    req.Offset,
		OidsOnly:  req.OidsOnly,
		// The plan is fixed here, before the expensive stages begin: the
		// watchdog budget grows from its floor to cover the estimate.
		OnPlanChosen: extendWatchdog,
	}
	if len(req.ColOrder) > 0 {
		opts.FixedColOrder = append([]int(nil), req.ColOrder...)
	}
	if req.Limit != nil {
		lim := *req.Limit
		opts.Limit = &lim
	}
	// A page that missed its plan entry pins the column order an
	// earlier page of its shape found and searches only the widths
	// (PlanCache.PageOrder).
	var orderKey string
	var order []int
	if hit {
		opts.PlanOverride = &choice
	} else if cacheable {
		if orderKey, order = s.cache.PageOrder(b, req.Limit, req.Offset, req.ColOrder); order != nil {
			opts.FixedColOrder = order
		}
	}

	execStart := time.Now()
	eres, err := engine.RunContext(ctx, t, q, opts)
	if err != nil {
		return nil, err
	}
	obsExecTime.Add(time.Since(execStart))
	if cacheable && !hit {
		s.cache.Put(key, planner.Choice{
			ColOrder: eres.ColOrder,
			Plan:     eres.Plan,
			Est:      eres.PredictedMCS,
		})
		if order == nil {
			s.cache.FillOrder(orderKey, eres.ColOrder)
		}
	}
	return buildResult(jobID, req, eres, hit, queueWait, time.Since(execStart)), nil
}

// maxQueryBytes resolves the per-query engine budget: the request's own
// cap when given, otherwise the admission reservation (so a query never
// uses more than it was admitted for) when the server budget is bounded,
// otherwise unlimited.
func maxQueryBytes(reqBytes, serverBytes, reserved int64) int64 {
	if reqBytes > 0 {
		return reqBytes
	}
	if serverBytes > 0 {
		return reserved
	}
	return 0
}

// buildResult converts an engine result into the wire form.
func buildResult(jobID string, req QueryRequest, eres *engine.Result, cacheHit bool, queueWait, exec time.Duration) *QueryResult {
	return &QueryResult{
		JobID:        jobID,
		Table:        req.Table,
		Rows:         eres.Rows,
		GroupKeys:    eres.GroupKeys,
		Aggregates:   eres.Aggregates,
		Ranks:        eres.Ranks,
		RowOids:      eres.RowOids,
		Workers:      eres.Workers,
		Plan:         eres.Plan.String(),
		ColOrder:     eres.ColOrder,
		PlanCacheHit: cacheHit,
		QueueWaitNS:  queueWait.Nanoseconds(),
		ExecNS:       exec.Nanoseconds(),
	}
}
