// Package server is the serving layer over the MCS engine: a
// long-running concurrent query service (`cmd/mcsd`) that loads
// WideTables once, shares them read-only across queries, memoizes the
// plan search in an LRU plan cache, and bounds concurrent
// work with an admission controller built on the PR 3 budget machinery
// (queue with deadline-aware timeouts, worker degradation, typed
// pipeerr.ErrBudgetExceeded refusals, graceful drain on shutdown).
//
// The wire surface is HTTP on the stdlib mux (http.go): submit a
// query, poll its status, fetch its result frame, scrape /metrics, probe
// /healthz. Every query that enters through the handler path executes
// through exactly the same engine.RunContext call a direct embedder
// would make, which the differential test battery exploits to prove
// the serving layer never perturbs results (docs/serving.md).
package server

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/table"
)

var obsTables = obs.NewGauge("server.tables")

// Registry holds the tables a server instance may query. A built table
// is immutable, so concurrent queries share it and only ever read it.
type Registry struct {
	mu     sync.RWMutex
	tables map[string]*table.Table
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tables: make(map[string]*table.Table)}
}

// Register adds t under t.Name. Duplicate names are refused.
func (r *Registry) Register(t *table.Table) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("server: register: table must be named")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tables[t.Name]; dup {
		return fmt.Errorf("server: register: duplicate table %s", t.Name)
	}
	r.tables[t.Name] = t
	obsTables.Set(int64(len(r.tables)))
	return nil
}

// Lookup returns the registered table with the given name.
func (r *Registry) Lookup(name string) (*table.Table, error) {
	r.mu.RLock()
	t := r.tables[name]
	r.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("server: no table %q", name)
	}
	return t, nil
}

// Names lists the registered table names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
