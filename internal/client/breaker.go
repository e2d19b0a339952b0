// Client-side consecutive-failure circuit breaker. Unlike the server's
// panic breaker (advisory, readiness-only), this one gates calls:
// while open, Query fails fast with ErrBreakerOpen instead of touching
// the network, and after the cooldown exactly one caller wins the
// half-open probe slot — a success closes the breaker for everyone, a
// failure re-opens it for another full cooldown.
package client

import (
	"sync"
	"time"
)

// brState mirrors the server's breakerState values so the
// client.breaker_state gauge reads on the same scale
// (0 closed, 1 half-open, 2 open).
type brState int

const (
	brClosed brState = iota
	brHalfOpen
	brOpen
)

type breaker struct {
	threshold int // <= 0 disables
	cooldown  time.Duration

	mu          sync.Mutex
	consecutive int
	tripped     bool
	trippedAt   time.Time
	probing     bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow gates one query: nil while closed, nil for exactly one caller
// per cooldown window while half-open — probe tells that caller it holds
// the probe slot — ErrBreakerOpen otherwise. The caller hands probe back
// with the query's outcome (recordSuccess, recordFailure or release):
// while the breaker is open only the probe's holder settles it, so a
// query admitted before the trip can neither re-open the breaker nor
// free the slot on the prober's behalf.
func (b *breaker) allow() (probe bool, err error) {
	if b.threshold <= 0 {
		return false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.refusingLocked() {
		return false, ErrBreakerOpen
	}
	if b.tripped {
		b.probing = true
		obsBreakerState.Set(int64(brHalfOpen))
	}
	return b.tripped, nil
}

// refusingLocked reports whether a call arriving now fails fast:
// tripped, and either still cooling down or waiting on the half-open
// probe another caller holds.
func (b *breaker) refusingLocked() bool {
	return b.tripped && (b.probing || time.Since(b.trippedAt) < b.cooldown)
}

// refusing is the read-only view of allow: it never claims the probe
// slot.
func (b *breaker) refusing() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refusingLocked()
}

// recordSuccess resets the failure run; the probe's success closes the
// breaker.
func (b *breaker) recordSuccess(probe bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tripped && !probe {
		return
	}
	b.consecutive = 0
	b.tripped = false
	b.probing = false
	obsBreakerState.Set(int64(brClosed))
}

// release ends a query without a verdict: the consecutive-failure run
// and the open/closed state stay as they are, and if this query held
// the half-open probe slot the next caller gets it.
func (b *breaker) release(probe bool) {
	if b.threshold <= 0 || !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// recordFailure counts one exhausted query (all retries spent);
// reaching the threshold — or failing the half-open probe — (re)opens
// the breaker for a full cooldown.
func (b *breaker) recordFailure(probe bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tripped && !probe {
		return
	}
	b.consecutive++
	if probe {
		b.probing = false
	} else if b.consecutive < b.threshold {
		return
	}
	if !b.tripped {
		obsBreakerTrips.Inc()
	}
	b.tripped = true
	b.trippedAt = time.Now()
	obsBreakerState.Set(int64(brOpen))
}
