// Package a is the ctxpoll golden fixture: context-taking functions
// with data-bound loops that do and don't poll cancellation.
package a

import "context"

// NoCtx has no context parameter: out of scope however it loops.
func NoCtx(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// BadRange loops over input data without ever polling.
func BadRange(ctx context.Context, xs []int) int {
	total := 0
	for _, x := range xs { // want `data-bound loop in BadRange does not poll ctx`
		total += x
	}
	return total
}

// GoodRange polls at a stride via ctx.Err.
func GoodRange(ctx context.Context, xs []int) (int, error) {
	total := 0
	for i, x := range xs {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += x
	}
	return total, nil
}

// Delegating forwards ctx to the per-chunk callee, which owns the
// polling obligation.
func Delegating(ctx context.Context, chunks [][]int) error {
	for _, c := range chunks {
		if err := process(ctx, c); err != nil {
			return err
		}
	}
	return nil
}

func process(ctx context.Context, xs []int) error { return ctx.Err() }

// ConstBound loops have compile-time trip counts: exempt.
func ConstBound(ctx context.Context) int {
	total := 0
	for i := 0; i < 16; i++ {
		total += i
	}
	var buf [32]int
	for i := range buf {
		total += i
	}
	for range 8 {
		total++
	}
	return total
}

// BadLenFor hides the data bound behind a local variable.
func BadLenFor(ctx context.Context, xs []int) int {
	n := len(xs)
	total := 0
	for i := 0; i < n; i++ { // want `data-bound loop in BadLenFor does not poll ctx`
		total += xs[i]
	}
	return total
}

// BadDeepChain derives its bound three assignments from len: every
// link of the chain is a length bound.
func BadDeepChain(ctx context.Context, xs []int) int {
	n := len(xs)
	m := n / 2
	k := m + 1
	s := 0
	for i := 0; i < k; i++ { // want `data-bound loop in BadDeepChain does not poll ctx`
		s += i
	}
	return s
}

// LocalConstBound loops up to a local set from a constant, beside a
// length-derived variable it never reads: exempt.
func LocalConstBound(ctx context.Context, xs []int) int {
	n := len(xs)
	c := 7
	s := n
	for j := 0; j < c; j++ {
		s += j
	}
	return s
}

// BadClosureBound assigns its bound inside a closure: the loop that
// reads it is data-bound all the same.
func BadClosureBound(ctx context.Context, xs []int) int {
	n := 0
	get := func() { n = len(xs) }
	get()
	s := 0
	for i := 0; i < n; i++ { // want `data-bound loop in BadClosureBound does not poll ctx`
		s += i
	}
	return s
}

// BadRangeLen ranges over len(xs) directly.
func BadRangeLen(ctx context.Context, xs []int) int {
	total := 0
	for i := range len(xs) { // want `data-bound loop in BadRangeLen does not poll ctx`
		total += i
	}
	return total
}

// BadInfinite drains a channel forever without watching ctx.
func BadInfinite(ctx context.Context, c chan int) int {
	total := 0
	for { // want `data-bound loop in BadInfinite does not poll ctx`
		v, ok := <-c
		if !ok {
			return total
		}
		total += v
	}
}

// GoodSelect watches ctx.Done in its select.
func GoodSelect(ctx context.Context, c chan int) int {
	total := 0
	for {
		select {
		case <-ctx.Done():
			return total
		case v := <-c:
			total += v
		}
	}
}

// Chunked is the canonical chunked-polling pattern: the outer loop
// polls once per stride, the inner loop burns through one bounded
// chunk. The inner loop is exempt — cancellation latency is one chunk.
func Chunked(ctx context.Context, xs []int) (int, error) {
	total := 0
	const stride = 1 << 14
	for off := 0; off < len(xs); off += stride {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := off + stride
		if end > len(xs) {
			end = len(xs)
		}
		for i := off; i < end; i++ {
			total += xs[i]
		}
	}
	return total, nil
}

// UnpolledNest polls nowhere: both the outer and the inner loop are
// findings (the enclosing-loop exemption needs an actual poll).
func UnpolledNest(ctx context.Context, xs [][]int) int {
	total := 0
	for _, row := range xs { // want `data-bound loop in UnpolledNest does not poll ctx`
		for _, x := range row { // want `data-bound loop in UnpolledNest does not poll ctx`
			total += x
		}
	}
	return total
}

// BadClosure captures ctx but its worker loop never polls.
func BadClosure(ctx context.Context, xs []int) {
	work := func() {
		for _, x := range xs { // want `data-bound loop in BadClosure does not poll ctx`
			_ = x
		}
	}
	work()
}

// OwnCtxClosure declares its own context parameter, so its loop is
// attributed to the literal itself (and polls correctly here).
func OwnCtxClosure(parent context.Context, xs []int) error {
	run := func(ctx context.Context) error {
		for i := range xs {
			if i%100 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return run(parent)
}

// CreditBatch is the coded-merge emission shape: an unconditional
// outer loop pops variable-length tie stretches and polls once every
// credit's worth of emitted elements; the stretch-emission inner loop
// is exempt because the enclosing loop polls.
func CreditBatch(ctx context.Context, batches [][]int) (int, error) {
	total := 0
	credit := 1 << 14
	i := 0
	for {
		if i >= len(batches) {
			return total, nil
		}
		b := batches[i]
		i++
		for _, x := range b {
			total += x
		}
		if credit -= len(b); credit <= 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			credit = 1 << 14
		}
	}
}

// BadCreditBatch emits the same batches but forgot the credit poll:
// both the outer pop loop and the inner emission loop are findings.
func BadCreditBatch(ctx context.Context, batches [][]int) int {
	total := 0
	i := 0
	for { // want `data-bound loop in BadCreditBatch does not poll ctx`
		if i >= len(batches) {
			return total
		}
		b := batches[i]
		i++
		for _, x := range b { // want `data-bound loop in BadCreditBatch does not poll ctx`
			total += x
		}
	}
}

// BoundedHeap is a bounded-heap top-K filter shape: a data-bound scan that
// polls on a decrementing credit and displaces the heap root on a
// smaller key. The heapify countdown is bounded by the limit parameter
// rather than the data, so it is exempt; the sift helper owns no
// context, so its log-bounded loop is out of scope.
func BoundedHeap(ctx context.Context, xs []uint64, limit int) (uint64, error) {
	heap := make([]uint64, limit)
	copy(heap, xs[:limit])
	for i := limit/2 - 1; i >= 0; i-- {
		sift(heap, i)
	}
	credit := 1 << 12
	for i := limit; i < len(xs); i++ {
		if credit--; credit <= 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			credit = 1 << 12
		}
		if xs[i] < heap[0] {
			heap[0] = xs[i]
			sift(heap, 0)
		}
	}
	return heap[0], nil
}

// BadBoundedHeap scans without the credit poll: the displacement scan
// is a finding (the limit-bounded heapify stays exempt).
func BadBoundedHeap(ctx context.Context, xs []uint64, limit int) uint64 {
	heap := make([]uint64, limit)
	copy(heap, xs[:limit])
	for i := limit/2 - 1; i >= 0; i-- {
		sift(heap, i)
	}
	for i := limit; i < len(xs); i++ { // want `data-bound loop in BadBoundedHeap does not poll ctx`
		if xs[i] < heap[0] {
			heap[0] = xs[i]
			sift(heap, 0)
		}
	}
	return heap[0]
}

// sift has no context parameter: its loop is exempt however it runs.
func sift(h []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] > h[l] {
			l = r
		}
		if h[l] <= h[i] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
