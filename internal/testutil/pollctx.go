package testutil

import (
	"context"
	"sync/atomic"
)

// PollCtx is a context that reports cancellation from its (polls+1)-th
// Err call on: a cancellation that lands mid-operation,
// deterministically. Only code polling this very context sees it — a
// context derived from it (a worker group's) keeps its own state.
type PollCtx struct {
	context.Context
	polls atomic.Int64
}

// NewPollCtx returns a PollCtx whose first polls Err calls return nil.
func NewPollCtx(polls int64) *PollCtx {
	c := &PollCtx{Context: context.Background()}
	c.polls.Store(polls)
	return c
}

// Err counts one poll.
func (c *PollCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// Left returns how many more polls report no cancellation: a run under
// NewPollCtx(k) that was never cancelled polled k − Left() times.
func (c *PollCtx) Left() int64 { return c.polls.Load() }
