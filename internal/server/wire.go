// Exported helpers for the sharded coordinator (internal/shard), which
// serves through the same Front and must classify and key exactly the
// way the single-node server does.
package server

import (
	"repro/internal/engine"
	"repro/internal/pipeerr"
	"repro/internal/table"
)

// ErrInvalidRequest is the class every request-validation failure
// wraps (HTTP 400, kind "invalid", not retryable). Exported so the
// coordinator can classify its own validation failures identically.
var ErrInvalidRequest = errInvalidRequest

// Classify is the single-node Backend classifier: the wire kind
// (queue_timeout, budget, watchdog, shutdown, execution_timeout,
// invalid, not_found, not_finished, pipeline, or the residual
// internal), pipeerr's retryability verdict, and the HTTP status. The
// coordinator's classifier layers its shard kinds over it.
func Classify(err error) (kind string, retryable bool, status int) {
	return errorKind(err), pipeerr.Retryable(err), statusFor(err)
}

// PlanKey builds the plan-cache key the server would use for this
// query shape: everything the search outcome depends on. The
// coordinator extends it with its shard topology so a cached pinned
// order is never replayed across re-partitionings.
func PlanKey(t *table.Table, q engine.Query, widths []int, workers int, rho float64, maxPlans int, limit *int, offset int) string {
	return planKey(t, q, widths, workers, rho, maxPlans, limit, offset, nil)
}

// SortColWidths resolves the bit width of every sort column of q
// (including a window's order column), validating they exist in t.
func SortColWidths(t *table.Table, q engine.Query) ([]int, error) {
	return sortColWidths(t, q)
}
