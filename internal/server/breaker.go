// Contained-panic circuit breaker backing /readyz. A single contained
// panic is a query-level event — the job fails typed, the server is
// fine. A run of them is a server-level signal (poisoned table,
// corrupted plan cache, a bug tripping on every query) that load
// balancers should route around while the operator looks. The breaker
// counts consecutive contained panics: at the threshold it opens
// (readyz degraded), after a cooldown it goes half-open (readyz ready
// again — the server never stopped executing queries, so readiness is
// advisory), and the next panic-free query closes it. A panic during
// half-open re-opens it for another full cooldown. Unlike the client's
// consecutive-failure breaker (internal/client/breaker.go), which gates
// calls and admits one half-open probe, this one never refuses a query:
// a server that stops executing could not see the fix that closes it.
package server

import (
	"sync"
	"time"

	"repro/internal/obs"
)

var (
	obsBreakerTrips = obs.NewCounter("server.breaker_trips")
	obsBreakerState = obs.NewGauge("server.breaker_state")
)

// breakerState is the classic circuit-breaker triple.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// panicBreaker trips on consecutive contained panics. threshold <= 0
// disables it (state is always closed).
type panicBreaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	consecutive int
	tripped     bool
	trippedAt   time.Time
}

func newPanicBreaker(threshold int, cooldown time.Duration) *panicBreaker {
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &panicBreaker{threshold: threshold, cooldown: cooldown}
}

// recordPanic counts one contained panic; reaching the threshold — or
// any panic while tripped — (re)opens the breaker for a full cooldown.
func (b *panicBreaker) recordPanic() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive++
	if b.consecutive >= b.threshold || b.tripped {
		if !b.tripped {
			obsBreakerTrips.Inc()
		}
		b.tripped = true
		b.trippedAt = time.Now()
	}
	st := b.stateLocked()
	b.mu.Unlock()
	obsBreakerState.Set(int64(st))
}

// recordSuccess resets the consecutive count; a success observed in
// the half-open window closes the breaker.
func (b *panicBreaker) recordSuccess() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive = 0
	if b.tripped && time.Since(b.trippedAt) >= b.cooldown {
		b.tripped = false
	}
	st := b.stateLocked()
	b.mu.Unlock()
	obsBreakerState.Set(int64(st))
}

// state returns the breaker's current position: open while tripped and
// cooling down, half-open once the cooldown elapsed (ready to be closed
// by one clean query), closed otherwise.
func (b *panicBreaker) state() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *panicBreaker) stateLocked() breakerState {
	if !b.tripped {
		return breakerClosed
	}
	if time.Since(b.trippedAt) >= b.cooldown {
		return breakerHalfOpen
	}
	return breakerOpen
}
