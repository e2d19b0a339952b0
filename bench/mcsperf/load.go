package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed op as its caller saw it.
type sample struct {
	op       int
	lat      time.Duration
	err      error
	sum      uint64 // checksum of the returned data
	colOrder []int
}

// runLoad drives the workload in a closed loop: each of the workload's
// clients sends its next op when its previous one returns, until ops
// ops have been issued. Ops are numbered from first in one shared
// sequence, so the same seed always issues the same queries in the
// same order. Results are checksummed after each op's clock has
// stopped.
func (e *env) runLoad(ctx context.Context, first, ops int) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= ops {
					return
				}
				s := e.timedOp(ctx, first+n)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i].op < samples[j].op })
	return samples
}

func (e *env) timedOp(ctx context.Context, i int) sample {
	out, lat, err := e.do(ctx, i)
	s := sample{op: i, lat: lat, err: err, colOrder: out.ColOrder}
	if err == nil {
		s.sum = out.checksum()
	}
	return s
}

// loadStats is what the generator itself can say about a phase.
type loadStats struct {
	attempted  int
	errored    int // ops that returned an error or were refused
	mismatched int // ops whose checksum differed from the oracle's
	p50, tail  float64
	tailPct    float64
	opsPerSec  float64
}

func (l loadStats) failed() int { return l.errored + l.mismatched }

// summarize checks every sample against the oracle and reduces the
// latencies. Throughput is ops over the time the clients spent waiting
// for replies (summed latency over the client count): in a closed loop
// that is the phase's wall time less the harness's own checksumming,
// and, being mean-driven, it sees the stalls a median hides.
func (e *env) summarize(samples []sample) (loadStats, error) {
	st := loadStats{attempted: len(samples)}
	var lats []float64
	var waited time.Duration
	for _, s := range samples {
		if s.err != nil {
			st.errored++
			continue
		}
		want, err := e.want(s.op, s.colOrder)
		if err != nil {
			return st, err
		}
		if s.sum != want {
			st.mismatched++
		}
		lats = append(lats, ms(s.lat))
		waited += s.lat
	}
	sort.Float64s(lats)
	st.p50 = percentile(lats, 50)
	st.tailPct = tailPercentile(len(lats))
	st.tail = percentile(lats, st.tailPct)
	if waited > 0 {
		st.opsPerSec = float64(len(lats)) * float64(e.w.clients) / waited.Seconds()
	}
	return st, nil
}
