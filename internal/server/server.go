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
	"repro/internal/plan"
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
	// Rho is the plan-search time threshold (planner.Search.Rho) and
	// MaxPlans the counted budget (engine.Options.MaxPlans), both
	// normalized by NewPlanCache: a served search reads no clock, so its
	// plan choice is deterministic and a plan-cache hit can only skip the
	// search. The budget also bounds the m!-order search of wide GROUP BY
	// clauses.
	Rho      float64
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
	cache, err := NewPlanCache(cfg.Model, cfg.Rho, cfg.MaxPlans, cfg.PlanCacheSize)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.DefaultWorkers < 1 {
		cfg.DefaultWorkers = 1
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 8 * cfg.MaxConcurrent
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
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
	// Worst-case footprint: every table row selected, at the most
	// rounds a plan can have. No query materializes its sort columns,
	// so none are charged.
	maxRounds := reservedRounds(b)
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

	page := s.cache.Page(b, req.Limit, req.Offset, req.ColOrder)
	opts := page.Options()
	hit := opts.PlanOverride != nil
	opts.Workers = workers
	opts.MaxBytes = maxQueryBytes(req.MaxBytes, s.cfg.MaxBytes, est)
	opts.OidsOnly = req.OidsOnly
	// The plan is fixed here, before the expensive stages begin: the
	// watchdog budget grows from its floor to cover the estimate.
	opts.OnPlanChosen = extendWatchdog

	execStart := time.Now()
	eres, err := engine.RunContext(ctx, t, q, opts)
	if err != nil {
		return nil, err
	}
	obsExecTime.Add(time.Since(execStart))
	page.Fill(planner.Choice{ColOrder: eres.ColOrder, Plan: eres.Plan, Est: eres.PredictedMCS})
	return buildResult(jobID, req, eres, hit, queueWait, time.Since(execStart)), nil
}

// reservedRounds is the round count admission charges b for: the
// paper's Lemma 2 bound on its concatenated key (plan.MaxRounds), or
// one round per column when that is more (column-at-a-time).
func reservedRounds(b *engine.Bound) int {
	totalW := 0
	for _, bs := range b.Cols {
		totalW += bs.Width
	}
	return max(plan.MaxRounds(totalW), len(b.Cols))
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
