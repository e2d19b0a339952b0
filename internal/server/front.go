// The job front: the one job surface both mcsd daemons serve. A Front
// owns the job table (Submit registers a query as an asynchronous job
// under the base context; Status, Wait and Result poll it; submitWait
// hands a job that settles within its submitter's wait to that
// submitter alone; Run is the synchronous form), the drain, the
// serve-layer containment boundary, the per-query watchdog, and the
// HTTP mux (http.go). What a query actually does — and how its
// failures read on the wire — comes from the Backend: the single-node
// Server executes through admission, the plan cache and
// engine.RunContext; the sharded shard.Coordinator pins a plan, fans
// out and merges.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// maxFinishedJobs bounds how many terminal jobs a Front retains for
// polling, and MaxResultBytes (frame.go) what their result payloads may
// weigh together. Beyond either the oldest-finished job is evicted and
// its id answers 404 not_found; queued and running jobs are never
// evicted, nor is the newest finished one, so a result of the largest
// size a client accepts is always fetchable. Only jobs whose submitter
// did not wait for them are retained (a job delivered on its submit
// response never is), and such a client long-polls the status and
// fetches right after the job settles, so the bounds only have to
// outlast one status answer of concurrently finishing jobs.
const maxFinishedJobs = 256

// retainedJob is one entry of the retention ring: a terminal job's id
// and the payload bytes its result holds (0 for a failed job).
type retainedJob struct {
	id    string
	bytes int64
}

// Backend is exactly what differs between the daemons behind a Front.
type Backend struct {
	// Registry backs GET /tables.
	Registry *Registry
	// Execute runs one validated query on ctx. jobID is empty for the
	// synchronous Run. The executor calls markRunning once the query
	// stops waiting and starts executing — the job flips to running and
	// the watchdog arms with its floor budget — and extendWatchdog once
	// the plan's predicted T_mcs (ns) is known.
	Execute func(ctx context.Context, jobID string, req QueryRequest, markRunning func(), extendWatchdog func(predictedNS float64)) (*QueryResult, error)
	// Classify maps a failure to its wire kind, retryability and HTTP
	// status.
	Classify func(err error) (kind string, retryable bool, status int)
	// Ready is the readiness probe behind /readyz: detail fields for the
	// body and a non-empty reason while the daemon is degraded. Draining
	// is the Front's own verdict and needs no probe.
	Ready func() (detail map[string]any, degraded string)
	// OnClose, when non-nil, runs once Shutdown has refused new
	// submissions and before it waits for running jobs.
	OnClose func()
	// Health is merged into the 200 /healthz body.
	Health map[string]string
	// Queries, Errors and ContainedPanics are the owner's obs counters.
	Queries, Errors, ContainedPanics *obs.Counter
	// WatchdogMult > 0 arms the per-query watchdog (watchdog.go) with
	// budget WatchdogFloor + WatchdogMult × predicted T_mcs;
	// WatchdogFloor defaults to 2s when armed.
	WatchdogMult  float64
	WatchdogFloor time.Duration
}

// Front is the job table, watchdog and HTTP mux over one Backend.
type Front struct {
	b Backend

	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup // running jobs

	mu   sync.Mutex
	jobs map[string]*job
	// finished is the ring of retained terminal jobs: settlements
	// [nEvicted, nFinished), entry i in slot i % maxFinishedJobs, their
	// payloads summing to retainedBytes.
	finished            [maxFinishedJobs]retainedJob
	nFinished, nEvicted int
	retainedBytes       int64
	nextID              int
	closed              bool
}

// NewFront returns a ready front over b.
func NewFront(b Backend) *Front {
	if b.WatchdogMult > 0 && b.WatchdogFloor <= 0 {
		b.WatchdogFloor = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Front{b: b, baseCtx: ctx, baseCancel: cancel, jobs: make(map[string]*job)}
}

// JobState is the lifecycle of one submitted query.
type JobState string

const (
	// JobQueued: accepted, not yet executing (possibly waiting for
	// admission).
	JobQueued JobState = "queued"
	// JobRunning: admitted and executing.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the result is available.
	JobDone JobState = "done"
	// JobFailed: finished with an error.
	JobFailed JobState = "failed"
)

// job is one submitted query and its terminal state.
type job struct {
	id string

	mu    sync.Mutex
	state JobState
	res   *QueryResult
	err   error
	// claimed: the submitter is still waiting to be handed the outcome
	// (submitWait), so the job is in neither the job table nor the
	// retention ring and settling it delivers it to that waiter alone.
	claimed bool
	doneCh  chan struct{}
}

// JobStatus is the pollable view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Error is the failure message (JobFailed only), with Kind its
	// machine-readable class: "queue_timeout", "execution_timeout",
	// "budget", "watchdog", "pipeline", "shutdown", "invalid", or
	// "internal" — plus "shard_unavailable" and "shard_invalid" from a
	// coordinator.
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
	// Retryable reports whether re-submitting the identical query may
	// succeed (the Backend classifier's verdict): true for queue
	// timeouts, budget refusals, watchdog kills, and contained pipeline
	// faults; false for validation failures and the caller's own
	// cancellation.
	Retryable bool `json:"retryable,omitempty"`
}

// Submit registers req as an asynchronous job and schedules it on the
// front's base context (plus the request's own timeout, if any). It
// returns the job id to poll.
func (f *Front) Submit(req QueryRequest) (string, error) {
	j, _, err := f.submitWait(context.Background(), req, 0)
	if err != nil {
		return "", err
	}
	return j.id, nil
}

// submitWait submits req and waits up to wait (none: Submit), or until
// ctx ends, for the job to settle. A job that settles in time is
// delivered — done is true and j's res and err are its outcome — and
// never enters the job table: nobody else has seen its id, so it
// answers 404 like an evicted one and its result is the caller's alone
// to hold. Otherwise j is a job polled and fetched like a Submit's. err
// is a refusal (validation, drain): no job exists.
func (f *Front) submitWait(ctx context.Context, req QueryRequest, wait time.Duration) (j *job, done bool, err error) {
	if j, err = f.submit(req, wait > 0); err != nil || wait <= 0 {
		return j, false, err
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-j.doneCh:
	case <-t.C:
	case <-ctx.Done():
	}
	// settle reads claimed under j.mu in the step that makes the job
	// terminal, so under the same lock the job is either terminal and
	// delivered here, or unclaimed and entered into the table before it
	// can settle: never both, never neither.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed {
		return j, true, nil
	}
	j.claimed = false
	f.mu.Lock()
	f.jobs[j.id] = j
	f.mu.Unlock()
	return j, false, nil
}

// submit registers and schedules one job; a claimed one stays out of
// the job table (submitWait).
func (f *Front) submit(req QueryRequest, claimed bool) (*job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrShuttingDown
	}
	f.nextID++
	j := &job{id: fmt.Sprintf("j%d", f.nextID), state: JobQueued, claimed: claimed, doneCh: make(chan struct{})}
	if !claimed {
		f.jobs[j.id] = j
	}
	f.wg.Add(1)
	f.mu.Unlock()

	// Containment of last resort: f.run recovers execution panics
	// itself, so reaching the onPanic path means the job bookkeeping
	// panicked. Record the failure so waiters unblock instead of
	// hanging on a job that will never settle.
	pipeerr.Spawn(pipeerr.StageServe, func(pe *pipeerr.PipelineError) {
		f.settle(j, nil, pe)
	}, func() {
		defer f.wg.Done()
		ctx := f.baseCtx
		var cancel context.CancelFunc
		if req.TimeoutMS > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		res, err := f.run(ctx, j, req)
		f.settle(j, res, err)
	})
	return j, nil
}

// settle moves j to its terminal state (once), enters it into the
// retention ring unless a waiting submitter claims it — evicting
// oldest-first whatever no longer fits the count and weight bounds —
// and wakes its waiters.
func (f *Front) settle(j *job, res *QueryResult, err error) {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed {
		j.mu.Unlock()
		return
	}
	var weight int64
	if err != nil {
		j.state, j.err = JobFailed, err
	} else {
		j.state, j.res = JobDone, res
		weight = res.payloadBytes()
	}
	claimed := j.claimed
	j.mu.Unlock()
	if claimed {
		close(j.doneCh)
		return
	}

	f.mu.Lock()
	f.retainedBytes += weight
	for f.nFinished > f.nEvicted &&
		(f.nFinished-f.nEvicted == maxFinishedJobs || f.retainedBytes > MaxResultBytes) {
		old := f.finished[f.nEvicted%maxFinishedJobs]
		delete(f.jobs, old.id)
		f.retainedBytes -= old.bytes
		f.nEvicted++
	}
	f.finished[f.nFinished%maxFinishedJobs] = retainedJob{j.id, weight}
	f.nFinished++
	f.mu.Unlock()
	close(j.doneCh)
}

// Status returns the job's current state, failures classified by the
// Backend.
func (f *Front) Status(id string) (JobStatus, error) {
	j, err := f.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Kind, st.Retryable, _ = f.b.Classify(j.err)
	}
	return st, nil
}

// Result returns the finished job's result, or an error when the job
// failed or has not finished yet.
func (f *Front) Result(id string) (*QueryResult, error) {
	j, err := f.job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobDone:
		return j.res, nil
	case JobFailed:
		return nil, j.err
	default:
		return nil, fmt.Errorf("%w: job %s is %s", errNotFinished, id, j.state)
	}
}

// Wait blocks until the job reaches a terminal state or ctx ends, then
// returns its result as Result would.
func (f *Front) Wait(ctx context.Context, id string) (*QueryResult, error) {
	j, err := f.job(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.doneCh:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.res, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Run executes req synchronously on the caller's context: the same
// execution path Submit's jobs take.
func (f *Front) Run(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrShuttingDown
	}
	f.wg.Add(1)
	f.mu.Unlock()
	defer f.wg.Done()
	return f.run(ctx, nil, req)
}

// Shutdown drains the front: new submissions are refused (and, via
// Backend.OnClose, queued waiters fail with ErrShuttingDown), running
// queries get until ctx ends to finish, then the base context is
// cancelled so stragglers unwind through cooperative cancellation. It
// returns nil when the drain completed cleanly and ctx.Err() when
// stragglers had to be cancelled (they still complete before Shutdown
// returns — no goroutine outlives it).
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	if f.b.OnClose != nil {
		f.b.OnClose()
	}

	done := make(chan struct{})
	pipeerr.Spawn(pipeerr.StageServe, nil, func() {
		defer close(done)
		f.wg.Wait()
	})
	select {
	case <-done:
		f.baseCancel()
		return nil
	case <-ctx.Done():
		f.baseCancel()
		<-done
		return ctx.Err()
	}
}

// errNoJob is wrapped by lookups of unknown (or evicted) job ids
// (wire: 404).
var errNoJob = errors.New("server: no such job")

// errNotFinished is wrapped when a result is fetched before the job
// reached a terminal state (wire: 409).
var errNotFinished = errors.New("server: job not finished")

// job looks up a submitted job by id.
func (f *Front) job(id string) (*job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", errNoJob, id)
	}
	return j, nil
}

// isClosed reports whether Shutdown has begun.
func (f *Front) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// run is the one execution path and the serve layer's containment
// boundary: the backends' sequential paths (the engine's, the
// cross-shard merge) execute on this goroutine — the job goroutine, or
// the caller's for Run — where no worker Group can recover a panic.
// Every such fire point runs with no live workers (docs/robustness.md),
// so recovering here leaks nothing and turns a would-be process crash
// into a typed, retryable job failure.
//
// It also owns the watchdog: the query runs under a CancelCause
// context, the watchdog arms with the floor budget when the executor
// reports it is running (so time spent queued for admission is not
// charged) and extends once the plan — and with it the T_mcs estimate
// — is fixed. CancelCause keeps the kill distinguishable from the
// client's own cancellation.
func (f *Front) run(ctx context.Context, j *job, req QueryRequest) (res *QueryResult, err error) {
	f.b.Queries.Inc()
	defer func() {
		if v := recover(); v != nil {
			f.b.ContainedPanics.Inc()
			f.b.Errors.Inc()
			res = nil
			err = &pipeerr.PipelineError{Stage: pipeerr.StageServe, Round: -1, Worker: -1, Err: pipeerr.AsError(v)}
		}
	}()

	jobID := ""
	if j != nil {
		jobID = j.id
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wd *watchdog
	defer func() { wd.stop() }()
	markRunning := func() {
		if j != nil {
			j.mu.Lock()
			j.state = JobRunning
			j.mu.Unlock()
		}
		if f.b.WatchdogMult > 0 && wd == nil {
			wd = startWatchdog(cancel, f.b.WatchdogFloor)
		}
	}
	extendWatchdog := func(predictedNS float64) {
		if wd != nil && predictedNS > 0 {
			wd.extend(f.b.WatchdogFloor + time.Duration(predictedNS*f.b.WatchdogMult))
		}
	}

	res, err = f.b.Execute(runCtx, jobID, req, markRunning, extendWatchdog)
	if err != nil {
		// A watchdog kill unwinds the pipeline as a plain context
		// cancellation — or, through a shard call's net/http round trip,
		// wrapped in transport errors; surface the typed cause itself.
		if pipeerr.IsCtxErr(err) || errors.Is(err, pipeerr.ErrWatchdog) {
			if cause := context.Cause(runCtx); cause != nil && errors.Is(cause, pipeerr.ErrWatchdog) {
				err = cause
			}
		}
		f.b.Errors.Inc()
		return nil, pipeerr.NoteCancel(err)
	}
	return res, nil
}
