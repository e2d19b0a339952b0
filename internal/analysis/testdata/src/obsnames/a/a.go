// Package a is the obsnames golden fixture: metric registrations with
// good, malformed, and duplicated names.
package a

import "repro/internal/obs"

var (
	sorts    = obs.NewCounter("fixture.sorts")
	rounds   = obs.NewGauge("fixture.rounds_max")
	phase    = obs.NewTimer("fixture.phase1_in_register")
	badCase  = obs.NewCounter("fixture.BadName") // want `obs metric name "fixture\.BadName" is not snake_case`
	badDash  = obs.NewGauge("fixture.has-dash")  // want `obs metric name "fixture\.has-dash" is not snake_case`
	badSpace = obs.NewTimer("fixture. spaced")   // want `obs metric name "fixture\. spaced" is not snake_case`
	dup      = obs.NewTimer("fixture.sorts")     // want `obs metric "fixture\.sorts" already registered in this package`
	empty    = obs.NewCounter("")                // want `obs metric name "" is not snake_case`
)

var queryID = "q13"

// Dynamic registers a per-query counter; non-literal names are beyond
// static checking and skipped.
func Dynamic() *obs.Counter {
	return obs.NewCounter("fixture.query." + queryID + ".rows")
}

// Use keeps the package-level metrics referenced.
func Use() {
	sorts.Inc()
	rounds.Set(1)
	_ = phase
	badCase.Inc()
	badDash.Set(2)
	_ = badSpace
	_ = dup
	empty.Inc()
}
