// Package pipeerr is the error taxonomy and fault-containment layer of
// the parallel MCS pipeline. It provides:
//
//   - PipelineError, the typed error every contained worker failure is
//     converted to (stage, round, worker, wrapped cause), re-exported as
//     mcs.PipelineError;
//   - ErrBudgetExceeded, returned when a query cannot fit the caller's
//     memory budget even after degrading to sequential execution;
//   - Group, a context-scoped goroutine group whose workers recover
//     their own panics into PipelineErrors and cancel their siblings, so
//     one poisoned chunk fails the query instead of the process;
//   - Pass (pass.go), the one driver under every data-parallel pass of
//     the pipeline — the paper's Section 6.4 scheme, cut the rows into
//     per-thread ranges and work each independently: the owning package
//     names the pass and supplies one range's work; cutting, spawning,
//     polling, fault injection, containment and busy-time accounting
//     happen here, once;
//   - DegradeWorkers, the graceful-degradation policy shared by
//     engine.RunContext and mcs.SortContext.
//
// Cancellations observed at pipeline boundaries and panics recovered in
// workers are published as obs counters (pipeline.cancellations,
// pipeline.recovered_panics); writes are no-ops until obs.Enable().
package pipeerr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Stage names used in PipelineError.Stage. They identify the pipeline
// phase a failure was contained in, not the package that raised it.
const (
	StageMassage   = "massage"
	StageSort      = "sort"
	StageMerge     = "merge"
	StagePermute   = "permute"
	StageGather    = "gather"
	StageAggregate = "aggregate"
	StageFilter    = "filter"
	StageScan      = "scan"
	// StageServe marks a failure contained at the serving layer: a panic
	// that escaped on the query's own goroutine (sequential code outside
	// a Pass runs on the caller, where neither a Pass nor a worker Group
	// recovers it) and was caught by mcsd's job-level containment.
	StageServe = "serve"
)

var (
	obsCancellations   = obs.NewCounter("pipeline.cancellations")
	obsCancelQueue     = obs.NewCounter("pipeline.cancellations_queue_wait")
	obsCancelExec      = obs.NewCounter("pipeline.cancellations_execution")
	obsRecoveredPanics = obs.NewCounter("pipeline.recovered_panics")
)

// ErrBudgetExceeded reports that a query was refused because its
// estimated memory footprint exceeds Options.MaxBytes even at the
// lowest degradation step (sequential execution). Match with errors.Is.
var ErrBudgetExceeded = errors.New("pipeline: memory budget exceeded")

// ErrQueueTimeout reports that a query's context was cancelled or its
// deadline expired before the pipeline started executing — while the
// query was queued for admission (mcsd's scheduler) or between flag
// parsing and the first unit of work (the CLIs' -timeout). It is
// distinct from a mid-execution cancellation so operators can tell an
// overloaded queue from a too-slow query. Match with errors.Is; the
// wrapped cause is the context error, so IsCtxErr also holds.
var ErrQueueTimeout = errors.New("pipeline: cancelled while queued")

// QueueTimeout wraps a context error (ctx.Err() observed before
// execution began) into the typed queue-wait form. Errors built here
// satisfy both errors.Is(err, ErrQueueTimeout) and IsCtxErr(err).
func QueueTimeout(ctxErr error) error {
	return fmt.Errorf("%w: %w", ErrQueueTimeout, ctxErr)
}

// ErrWatchdog reports that a query was force-cancelled by the serving
// layer's per-query watchdog because its wall-clock time exceeded a
// hard multiple of its predicted cost. It deliberately does NOT wrap a
// context error: a watchdog kill is the server's verdict on a stuck
// query, not the caller's deadline, so IsCtxErr(err) is false and the
// error classifies as retryable (the stall is usually load- or
// fault-induced, not intrinsic to the query). Match with errors.Is.
var ErrWatchdog = errors.New("pipeline: watchdog force-cancelled query")

// Watchdog builds the typed watchdog error, recording how long the
// query ran against the budget the watchdog allowed it.
func Watchdog(elapsed, budget time.Duration) error {
	return fmt.Errorf("%w: ran %v, budget %v", ErrWatchdog, elapsed, budget)
}

// Retryable classifies an error as transient (a retry against the same
// server may succeed) or permanent (a retry with the identical request
// is pointless). Transient failures are the load- and fault-induced
// ones:
//
//   - ErrQueueTimeout — the admission queue was congested;
//   - ErrBudgetExceeded — the memory budget refused the query under the
//     current aggregate load (a later retry may fit);
//   - ErrWatchdog — the watchdog killed a stalled execution;
//   - *PipelineError — a contained worker fault (an injected or real
//     panic poisoned one chunk; the pipeline itself is healthy).
//
// Everything else — validation failures, unknown tables/columns, and
// plain context errors (the caller's own cancellation or deadline) —
// is permanent. nil is not retryable.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrQueueTimeout) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrWatchdog) {
		return true
	}
	var pe *PipelineError
	return errors.As(err, &pe)
}

// PipelineError is the typed failure of one pipeline worker: which
// stage it ran, which sorting round (-1 when not applicable), which
// worker index (-1 when not applicable), and the underlying cause. A
// recovered panic carries the panic value in Err; Unwrap exposes it to
// errors.Is/As.
type PipelineError struct {
	Stage  string
	Round  int
	Worker int
	Err    error
}

// Error formats the failure with its pipeline coordinates.
func (e *PipelineError) Error() string {
	s := "pipeline: stage " + e.Stage
	if e.Round >= 0 {
		s += fmt.Sprintf(" round %d", e.Round)
	}
	if e.Worker >= 0 {
		s += fmt.Sprintf(" worker %d", e.Worker)
	}
	return s + ": " + e.Err.Error()
}

// Unwrap returns the underlying cause.
func (e *PipelineError) Unwrap() error { return e.Err }

// panicValue wraps a recovered panic value that was not itself an error.
type panicValue struct{ v any }

func (p panicValue) Error() string { return fmt.Sprintf("panic: %v", p.v) }

// AsError converts a recovered panic value into an error, preserving
// error values (so errors.Is/As see through the PipelineError wrapper).
func AsError(v any) error {
	if err, ok := v.(error); ok {
		return err
	}
	return panicValue{v}
}

// IsCtxErr reports whether err is (or wraps) a context cancellation or
// deadline expiry.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// NoteCancel records err on the pipeline.cancellations counter when it
// is a context error, and returns err unchanged; entry points call it
// once on their error return path. Cancellations are additionally
// classified by phase: ErrQueueTimeout-typed errors count under
// pipeline.cancellations_queue_wait, every other context error under
// pipeline.cancellations_execution, so emitted metrics distinguish a
// deadline that expired in the queue from one that expired mid-query.
func NoteCancel(err error) error {
	if err != nil && IsCtxErr(err) {
		obsCancellations.Inc()
		if errors.Is(err, ErrQueueTimeout) {
			obsCancelQueue.Inc()
		} else {
			obsCancelExec.Inc()
		}
	}
	return err
}

// Group runs pipeline workers under a shared context. The first failure
// cancels the context, so sibling workers drain at their next
// cooperative check; a panicking worker is recovered into a
// *PipelineError instead of crashing the process. Wait prefers real
// failures over the cancellations they induced.
type Group struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewGroup derives a cancellable group context from parent.
func NewGroup(parent context.Context) *Group {
	ctx, cancel := context.WithCancel(parent)
	return &Group{ctx: ctx, cancel: cancel}
}

// Go spawns fn as a worker of the given stage/round/worker coordinates.
// fn receives the group context and should return promptly once it is
// cancelled. A non-nil return or a panic fails the group and cancels
// the siblings; panics and non-context errors are wrapped into
// *PipelineError.
func (g *Group) Go(stage string, round, worker int, fn func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				obsRecoveredPanics.Inc()
				g.fail(&PipelineError{Stage: stage, Round: round, Worker: worker, Err: AsError(v)})
			}
		}()
		if err := fn(g.ctx); err != nil {
			if IsCtxErr(err) {
				g.fail(err)
			} else {
				g.fail(&PipelineError{Stage: stage, Round: round, Worker: worker, Err: err})
			}
		}
	}()
}

// Spawn runs fn on its own goroutine with last-resort panic
// containment: a panic is recovered into a *PipelineError (with the
// given stage, no round/worker coordinates), counted on the
// recovered-panics counter, and handed to onPanic instead of crashing
// the process. onPanic may be nil when the caller has nothing to
// record. It is the sanctioned spawn path for fire-and-forget library
// goroutines that do not belong to a worker Group — job runners,
// shutdown waiters; the mcslint grouped analyzer flags
// bare go statements in library code, and this helper (with Group.Go)
// is how they are spelled instead.
func Spawn(stage string, onPanic func(*PipelineError), fn func()) {
	go func() {
		defer func() {
			if v := recover(); v != nil {
				obsRecoveredPanics.Inc()
				if onPanic != nil {
					onPanic(&PipelineError{Stage: stage, Round: -1, Worker: -1, Err: AsError(v)})
				}
			}
		}()
		fn()
	}()
}

// fail records err as the group failure and cancels the group. A
// non-context error (a contained panic, an injected fault) replaces a
// previously recorded cancellation: when a poisoned worker cancels its
// siblings, the caller must see the poison, not the cancellations it
// caused.
func (g *Group) fail(err error) {
	g.mu.Lock()
	if g.err == nil || (IsCtxErr(g.err) && !IsCtxErr(err)) {
		g.err = err
	}
	g.mu.Unlock()
	g.cancel()
}

// Wait blocks until every worker returned, releases the group context,
// and returns the recorded failure, if any.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// DegradeWorkers implements the graceful-degradation policy for a
// memory budget: try the requested worker count, halving it while the
// estimated footprint base + estPerLevel(workers) exceeds maxBytes,
// and refuse with ErrBudgetExceeded when even sequential execution
// (workers = 1) does not fit. maxBytes <= 0 means unlimited. The
// returned count is always in [1, workers] on success.
func DegradeWorkers(workers int, maxBytes int64, estimate func(workers int) int64) (int, error) {
	if workers < 1 {
		workers = 1
	}
	if maxBytes <= 0 {
		return workers, nil
	}
	for w := workers; ; w /= 2 {
		if w < 1 {
			w = 1
		}
		if estimate(w) <= maxBytes {
			return w, nil
		}
		if w == 1 {
			return 0, fmt.Errorf("%w: estimated %d bytes > budget %d bytes even at workers=1",
				ErrBudgetExceeded, estimate(1), maxBytes)
		}
	}
}
