package pipeerr

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// BlockRows is the range size of a row pass that runs on the caller's
// goroutine: large enough that the per-range context poll is free,
// small enough that cancellation lands within a fraction of the pass.
const BlockRows = 1 << 16

// Pass names one data-parallel pass of the pipeline. It is a literal
// written at the call site from the constants the pass already has, not
// a configuration surface.
type Pass struct {
	// Stage and Round are the PipelineError coordinates of a contained
	// failure (Round -1 when the pass belongs to no sorting round).
	Stage string
	Round int
	// Site is the faultinject site every range fires after its poll;
	// empty fires none.
	Site string
	// Align makes every interior range bound of Rows a multiple of it,
	// so no two workers share a cache line or a packed word.
	Align int
	// MinRows is the size below which Rows stays on the caller's
	// goroutine whatever the worker count.
	MinRows int
	// Busy, when non-nil, accumulates the time the ranges ran.
	Busy *Busy
}

// Cut returns the bounds of at most workers ranges covering [0, n) —
// range i is [bounds[i], bounds[i+1]) — each ⌈n/workers⌉ rows rounded
// up to a multiple of align, the last one whatever remains. n = 0 has
// no ranges.
func Cut(n, workers, align int) []int {
	workers, align = max(workers, 1), max(align, 1)
	size := ((n+workers-1)/workers + align - 1) / align * align
	bounds := make([]int, 1, workers+1)
	for lo := size; lo < n; lo += size {
		bounds = append(bounds, lo)
	}
	if n > 0 {
		bounds = append(bounds, n)
	}
	return bounds
}

// Parallel reports whether Rows spreads n rows over worker goroutines.
func (p Pass) Parallel(n, workers int) bool { return workers >= 2 && n >= p.MinRows }

// Split returns the ranges Rows cuts n rows into — range i is
// [bounds[i], bounds[i+1]) — and the workers it runs them on: one
// aligned range per worker when the pass is Parallel, BlockRows-row
// blocks on the caller's goroutine (w = 1) otherwise. A pass whose
// ranges each produce output of their own (a count, a list) runs
// Ranges over them itself.
func (p Pass) Split(n, workers int) (bounds []int, w int) {
	if p.Parallel(n, workers) {
		return Cut(n, workers, p.Align), workers
	}
	// The same cut with ⌈n/BlockRows⌉ "workers" yields the blocks.
	return Cut(n, (n+BlockRows-1)/BlockRows, BlockRows), 1
}

// Rows runs a pass whose unit of work is one row: run(lo, hi) is called
// over disjoint ranges covering [0, n), the ranges of Split.
func (p Pass) Rows(ctx context.Context, n, workers int, run func(lo, hi int)) error {
	bounds, workers := p.Split(n, workers)
	return p.Ranges(ctx, workers, len(bounds)-1, func(_ context.Context, i int) error {
		run(bounds[i], bounds[i+1])
		return nil
	})
}

// Ranges runs run(ctx, i) once for every range 0 ≤ i < n: in order on
// the caller's goroutine when workers < 2, otherwise on min(workers, n)
// goroutines of one Group that claim the ranges in order. Either way a
// range first polls the context and fires the pass's site, so a
// cancelled pass starts no further range and returns ctx.Err(), and a
// panicking range surfaces as a *PipelineError carrying the pass's
// stage and round; in a Group a failing or panicking range also cancels
// its siblings.
// run must write only state its range owns.
func (p Pass) Ranges(ctx context.Context, workers, n int, run func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers < 2 {
		return p.sequential(ctx, n, run)
	}
	var next atomic.Int64
	g := NewGroup(ctx)
	for w := 0; w < min(workers, n); w++ {
		g.Go(p.Stage, p.Round, w, func(gctx context.Context) error {
			for {
				// Poll, then claim: a worker fresh off the shared counter
				// would meet its siblings on the context's mutex.
				if err := gctx.Err(); err != nil {
					return err
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return nil
				}
				if err := p.visit(gctx, i, run); err != nil {
					return err
				}
			}
		})
	}
	return g.Wait()
}

// sequential is Ranges on the caller's goroutine. A panicking range is
// contained as worker 0's, as a Group would contain it.
func (p Pass) sequential(ctx context.Context, n int, run func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			obsRecoveredPanics.Inc()
			err = &PipelineError{Stage: p.Stage, Round: p.Round, Worker: 0, Err: AsError(v)}
		}
	}()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.visit(ctx, i, run); err != nil {
			return err
		}
	}
	return nil
}

// visit is what a range does once its worker has polled the context:
// fire the pass's site, then run — timed when the pass keeps busy time.
func (p Pass) visit(ctx context.Context, i int, run func(ctx context.Context, i int) error) error {
	if p.Site != "" {
		faultinject.Fire(p.Site)
	}
	if p.Busy != nil {
		defer func(t0 time.Time) { p.Busy.ns.Add(int64(time.Since(t0))) }(time.Now())
	}
	return run(ctx, i)
}

// Busy accumulates how long the ranges of one traced parallel phase
// ran, against the wall clock started with it. A nil *Busy is the
// untraced phase: a Pass ignores it and Publish does nothing.
type Busy struct {
	ns      atomic.Int64
	start   time.Time
	workers int
}

// StartBusy starts the accounting of a phase run by workers goroutines.
// It returns nil unless tracing is on and the phase is parallel.
func StartBusy(workers int) *Busy {
	if workers < 2 || !obs.Enabled() {
		return nil
	}
	return &Busy{start: time.Now(), workers: workers}
}

// Publish sets gauge to busy/(workers × wall) × 1000: 1000 means the
// workers were collectively busy for the whole wall time.
func (b *Busy) Publish(gauge *obs.Gauge) {
	if b == nil {
		return
	}
	if wall := time.Since(b.start); wall > 0 {
		gauge.Set(b.ns.Load() * 1000 / (int64(wall) * int64(b.workers)))
	}
}
