// Package obs is the execution tracing and metrics subsystem: span-style
// timers, atomic counters, and gauges held in a process-global registry,
// snapshotted on demand as text or JSON. The hot paths of the sorter
// (mergesort, mcsort, massage, planner, engine) publish into it so a run
// can report per-phase time breakdowns, massage op counts, and
// predicted-vs-measured cost — the observables behind the paper's cost
// model (T_lookup/T_massage/T_sort/T_scan).
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every mutating operation first loads one
//     package-level atomic bool and returns; no time.Now() is taken, no
//     interface is crossed, nothing allocates. Instrumented code may
//     therefore call Add/Inc/Set unconditionally. Timed regions that
//     need a time.Now() guard it with obs.Enabled().
//  2. Race-safe when enabled. All state is atomic; metrics may be
//     updated from any number of goroutines (the parallel sort path is
//     run under -race in CI).
//  3. No interface indirection on the hot path. Metrics are concrete
//     struct pointers obtained once at package init; recording is a
//     direct method call on them.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-global instrumentation switch. Off by default:
// library users pay one atomic load per instrumentation site.
var enabled atomic.Bool

// Enable turns instrumentation on.
func Enable() { enabled.Store(true) }

// Disable turns instrumentation off. Values already recorded are kept
// until Reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether instrumentation is on. Hot paths use it to
// skip time.Now() calls entirely when tracing is off.
func Enabled() bool { return enabled.Load() }

// registry is the process-global metric namespace. Registration is
// rare: every name is fixed at package init (a per-query number travels
// in the query's result, never under a name of its own); lookups on
// re-registration take the read lock only.
var registry = struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	timers   map[string]*Timer
	gauges   map[string]*Gauge
}{
	counters: map[string]*Counter{},
	timers:   map[string]*Timer{},
	gauges:   map[string]*Gauge{},
}

// A Counter is a monotonically increasing atomic count.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers (or returns the existing) counter with the name.
func NewCounter(name string) *Counter {
	registry.mu.RLock()
	c := registry.counters[name]
	registry.mu.RUnlock()
	if c != nil {
		return c
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c = registry.counters[name]; c == nil {
		c = &Counter{name: name}
		registry.counters[name] = c
	}
	return c
}

// Add increments the counter by n. No-op when instrumentation is off.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// A Gauge is an instantaneous value (last-set or running-max).
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers (or returns the existing) gauge with the name.
func NewGauge(name string) *Gauge {
	registry.mu.RLock()
	g := registry.gauges[name]
	registry.mu.RUnlock()
	if g != nil {
		return g
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g = registry.gauges[name]; g == nil {
		g = &Gauge{name: name}
		registry.gauges[name] = g
	}
	return g
}

// Set stores n. No-op when instrumentation is off.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n is larger than the current value.
func (g *Gauge) SetMax(n int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// A Timer aggregates spans of wall time: how many spans were recorded,
// their total, and the longest single span. Nested regions use separate
// timers whose names share a prefix ("mergesort.phase1_…"); a child's
// total never exceeds its enclosing parent's, which the property tests
// assert.
type Timer struct {
	name  string
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// NewTimer registers (or returns the existing) timer with the name.
func NewTimer(name string) *Timer {
	registry.mu.RLock()
	t := registry.timers[name]
	registry.mu.RUnlock()
	if t != nil {
		return t
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if t = registry.timers[name]; t == nil {
		t = &Timer{name: name}
		registry.timers[name] = t
	}
	return t
}

// A Span is one in-flight timed region. The zero Span (returned when
// instrumentation is off) is inert: End does nothing.
type Span struct {
	t     *Timer
	start time.Time
}

// Start opens a span. When instrumentation is off it returns the inert
// zero Span without reading the clock.
func (t *Timer) Start() Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// End closes the span and records its duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Add(time.Since(s.start))
}

// Add records one span of the given duration directly — for call sites
// that already measured the region themselves.
func (t *Timer) Add(d time.Duration) {
	if !enabled.Load() {
		return
	}
	ns := int64(d)
	t.count.Add(1)
	t.total.Add(ns)
	for {
		cur := t.max.Load()
		if ns <= cur || t.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns how many spans were recorded.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the summed span duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.total.Load()) }

// Name returns the registered name.
func (t *Timer) Name() string { return t.name }

// Reset zeroes every registered metric (the registrations survive).
func Reset() {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.v.Store(0)
	}
	for _, t := range registry.timers {
		t.count.Store(0)
		t.total.Store(0)
		t.max.Store(0)
	}
}

// CounterStat is one counter's snapshot row.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeStat is one gauge's snapshot row.
type GaugeStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// TimerStat is one timer's snapshot row. AvgNS is TotalNS/Count.
type TimerStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	AvgNS   int64  `json:"avg_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// Report is a point-in-time copy of every registered metric, sorted by
// name. Each individual value is read atomically; the report as a whole
// is taken without stopping writers, so concurrent increments may land
// between rows — values only ever read at-or-after their true value at
// the time Snapshot began.
type Report struct {
	Enabled  bool          `json:"enabled"`
	Counters []CounterStat `json:"counters"`
	Timers   []TimerStat   `json:"timers"`
	Gauges   []GaugeStat   `json:"gauges"`
}

// Snapshot captures the current state of the registry.
func Snapshot() Report {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	r := Report{Enabled: enabled.Load()}
	for _, c := range registry.counters {
		r.Counters = append(r.Counters, CounterStat{Name: c.name, Value: c.v.Load()})
	}
	for _, g := range registry.gauges {
		r.Gauges = append(r.Gauges, GaugeStat{Name: g.name, Value: g.v.Load()})
	}
	for _, t := range registry.timers {
		ts := TimerStat{
			Name:    t.name,
			Count:   t.count.Load(),
			TotalNS: t.total.Load(),
			MaxNS:   t.max.Load(),
		}
		if ts.Count > 0 {
			ts.AvgNS = ts.TotalNS / ts.Count
		}
		r.Timers = append(r.Timers, ts)
	}
	sort.Slice(r.Counters, func(i, j int) bool { return r.Counters[i].Name < r.Counters[j].Name })
	sort.Slice(r.Gauges, func(i, j int) bool { return r.Gauges[i].Name < r.Gauges[j].Name })
	sort.Slice(r.Timers, func(i, j int) bool { return r.Timers[i].Name < r.Timers[j].Name })
	return r
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the report as aligned human-readable text, skipping
// metrics that never recorded anything.
func (r Report) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("-- obs timers --\n")
	for _, t := range r.Timers {
		if t.Count == 0 {
			continue
		}
		p("%-40s total %12.3fms  count %8d  avg %10.3fµs  max %10.3fµs\n",
			t.Name, float64(t.TotalNS)/1e6, t.Count,
			float64(t.AvgNS)/1e3, float64(t.MaxNS)/1e3)
	}
	p("-- obs counters --\n")
	for _, c := range r.Counters {
		if c.Value == 0 {
			continue
		}
		p("%-40s %d\n", c.Name, c.Value)
	}
	p("-- obs gauges --\n")
	for _, g := range r.Gauges {
		if g.Value == 0 {
			continue
		}
		p("%-40s %d\n", g.Name, g.Value)
	}
	return err
}

// WriteJSON snapshots the registry and writes it as JSON.
func WriteJSON(w io.Writer) error { return Snapshot().WriteJSON(w) }

// WriteText snapshots the registry and writes it as text.
func WriteText(w io.Writer) error { return Snapshot().WriteText(w) }
