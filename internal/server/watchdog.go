// Per-query watchdog: force-cancels a query whose wall-clock time
// exceeds a hard multiple of its predicted cost. A query stalled by an
// injected delay, a scheduling pathology, or a bug would otherwise pin
// its admission slot (and its bytes) until the client deadline — if the
// client even set one. The watchdog is the server's own bound: it arms
// with a floor budget when execution starts, extends to
// floor + mult × predicted T_mcs the moment the plan is fixed
// (engine.Options.OnPlanChosen delivers the cost model's estimate
// before the expensive stages begin), and cancels through
// context.CancelCause so the typed pipeerr.ErrWatchdog is
// distinguishable from the client's own cancellation.
package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeerr"
)

var (
	obsWatchdogKills   = obs.NewCounter("server.watchdog_kills")
	obsWatchdogExtends = obs.NewCounter("server.watchdog_extensions")
)

// watchdog guards one query execution with one timer: extend re-arms
// it, and Front.run stops it when the query ends.
type watchdog struct {
	cancel context.CancelCauseFunc
	start  time.Time

	mu      sync.Mutex
	budget  time.Duration
	timer   *time.Timer
	stopped bool
}

// startWatchdog arms a watchdog with the floor budget; cancel must be
// the CancelCause func of the query's context.
func startWatchdog(cancel context.CancelCauseFunc, floor time.Duration) *watchdog {
	w := &watchdog{cancel: cancel, start: time.Now(), budget: floor}
	w.mu.Lock() // fire reads w.timer
	defer w.mu.Unlock()
	w.timer = time.AfterFunc(floor, w.fire)
	return w
}

// extend raises the kill budget (it never shrinks: a floor more
// generous than the scaled estimate stays in force) and re-arms the
// timer.
func (w *watchdog) extend(budget time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped || budget <= w.budget {
		return
	}
	w.budget = budget
	obsWatchdogExtends.Inc()
	w.timer.Reset(budget - time.Since(w.start))
}

// fire runs on the timer's goroutine, which recovers no panic, so fire
// must not panic. It re-checks the budget (an extension that raced the
// expiry wins); past it, it cancels the query with pipeerr.ErrWatchdog.
func (w *watchdog) fire() {
	w.mu.Lock()
	elapsed, budget := time.Since(w.start), w.budget
	kill := !w.stopped && elapsed >= budget
	if !w.stopped && !kill {
		w.timer.Reset(budget - elapsed)
	}
	w.stopped = w.stopped || kill
	w.mu.Unlock()
	if kill {
		obsWatchdogKills.Inc()
		w.cancel(pipeerr.Watchdog(elapsed, budget))
	}
}

// stop disarms the watchdog once its query has ended; nil is a no-op.
func (w *watchdog) stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	w.timer.Stop()
}
