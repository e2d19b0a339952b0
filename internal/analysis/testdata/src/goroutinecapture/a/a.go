// Package a is the goroutinecapture golden fixture: captured-state
// writes from spawned goroutines — racing shapes, and the exemptions
// (worker-distinct indexes, must-held mutexes).
package a

import (
	"context"
	"sync"

	"repro/internal/pipeerr"
)

// Overlap: every worker sweeps the whole slice; i is a closure-local
// counter, not worker-distinct.
func Overlap(out []int, workers int) {
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < len(out); i++ {
				out[i] = i // want `index not derived from a worker-distinct value`
			}
		}()
		_ = w
	}
}

// ByParam: the worker index arrives as a closure parameter: distinct.
func ByParam(out []int, workers int) {
	for w := 0; w < workers; w++ {
		go func(idx int) {
			out[idx] = idx
		}(w)
	}
}

// ByLoopVar: go 1.22 gives each iteration its own variable, so a
// captured loop variable is worker-distinct.
func ByLoopVar(out []int) {
	for i := range out {
		go func() {
			out[i] = i * 2
		}()
	}
}

// Scalar: captured scalar accumulation races.
func Scalar(xs []int) int {
	sum := 0
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			sum += x // want `writes captured variable sum without synchronization`
		}
		close(done)
	}()
	<-done
	return sum
}

// MapWrite: map writes race even on distinct keys.
func MapWrite(m map[int]int, workers int) {
	for w := 0; w < workers; w++ {
		go func(k int) {
			m[k] = k // want `map writes race even on distinct keys`
		}(w)
	}
}

// LockedMap: the same write under a must-held mutex is sanctioned.
func LockedMap(mu *sync.Mutex, m map[int]int, workers int) {
	for w := 0; w < workers; w++ {
		go func(k int) {
			mu.Lock()
			m[k] = k
			mu.Unlock()
		}(w)
	}
}

// Append: growing a captured slice writes its header.
func Append(xs []int) []int {
	var out []int
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			out = append(out, x) // want `writes captured variable out without synchronization`
		}
		close(done)
	}()
	<-done
	return out
}

// Recv: indexes received from a channel are worker-distinct — each
// item is delivered to exactly one goroutine. The select with a
// default exercises the CFG's select handling.
func Recv(out []int, ch chan int, workers int) {
	for w := 0; w < workers; w++ {
		go func() {
			for {
				select {
				case i, ok := <-ch:
					if !ok {
						return
					}
					out[i] = i
				default:
					return
				}
			}
		}()
	}
}

var total int

// SpawnTotals: literals passed to pipeerr.Spawn run on the spawned
// goroutine; a captured package-level accumulator still races.
func SpawnTotals(vals []int) {
	pipeerr.Spawn(pipeerr.StageServe, nil, func() {
		for _, v := range vals {
			total += v // want `writes captured variable total without synchronization`
		}
	})
}

// PassTotals: a literal handed to the pass driver runs on the pass's
// worker goroutines; the captured accumulator races there too, while
// the range-indexed slice write is worker-disjoint.
func PassTotals(ctx context.Context, out, vals []int) error {
	return pipeerr.Pass{Stage: pipeerr.StageAggregate, Round: -1}.Rows(ctx, len(vals), 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = vals[i]
			total += vals[i] // want `writes captured variable total without synchronization`
		}
	})
}

// PassRanges: the driver's range index is a closure parameter, so
// writes indexed by it (or by bounds derived from it) are disjoint —
// but every range sweeping the whole slice is not.
func PassRanges(ctx context.Context, out, bounds []int) error {
	return pipeerr.Pass{Stage: pipeerr.StageSort, Round: 0}.Ranges(ctx, 4, len(bounds)-1, func(ctx context.Context, c int) error {
		for i := bounds[c]; i < bounds[c+1]; i++ {
			out[i] = c
		}
		for j := 0; j < len(out); j++ {
			out[j] = c // want `index not derived from a worker-distinct value`
		}
		return nil
	})
}
