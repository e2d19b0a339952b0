package testutil

import "repro/internal/obs"

// Bumps runs f with obs enabled and returns how far f moved each named
// counter, in order: the proof that f took the path that bumps them.
func Bumps(f func(), names ...string) []int64 {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	before := make([]int64, len(names))
	for i, name := range names {
		before[i] = obs.NewCounter(name).Value()
	}
	f()
	for i, name := range names {
		before[i] = obs.NewCounter(name).Value() - before[i]
	}
	return before
}
