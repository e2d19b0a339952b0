// Package client is a retrying mcsd client: the other half of the PR 8
// fault-tolerance contract. The server types its failures
// (pipeerr.Retryable over the wire as the `retryable` JSON field plus
// distinct HTTP statuses and Retry-After hints); this client consumes
// exactly that contract — jittered exponential backoff on retryable
// failures, per-request deadlines so a wedged server cannot wedge the
// caller, and a consecutive-failure circuit breaker with half-open
// probing so a down server is not hammered.
//
// The package is stdlib-only (net/http + encoding/json) and draws its
// backoff jitter from a caller-seeded chaos.Rand, never math/rand or
// the clock, so a storm run that logs its seed replays with identical
// retry schedules.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/server"
)

var (
	obsRetries      = obs.NewCounter("client.retries")
	obsBreakerTrips = obs.NewCounter("client.breaker_trips")
	obsBreakerState = obs.NewGauge("client.breaker_state")
)

// ErrBreakerOpen is returned without touching the network while the
// client-side breaker is open (too many consecutive failures, cooldown
// not yet elapsed).
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// Error is a typed wire failure. Unwrap maps the server's machine
// -readable kind back onto the pipeerr sentinels, so
// errors.Is(err, pipeerr.ErrBudgetExceeded) works across the HTTP
// boundary exactly as it does in process.
type Error struct {
	Kind      string // server's errorKind: queue_timeout, budget, watchdog, ...
	Status    int    // HTTP status, 0 when the response never arrived
	Retryable bool   // server's verdict (pipeerr.Retryable over the wire)
	Msg       string

	// retryAfter is the server's Retry-After hint, parsed; it raises
	// the backoff floor but is not part of the error identity.
	retryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("client: %s (kind=%s, status=%d, retryable=%t)", e.Msg, e.Kind, e.Status, e.Retryable)
}

// Unwrap surfaces the pipeerr sentinel the server's taxonomy names for
// the kind (queue_timeout, budget, watchdog) so the in-process and
// over-the-wire error vocabularies are one vocabulary.
func (e *Error) Unwrap() error {
	c, _ := server.ClassOfKind(e.Kind)
	return c.Sentinel
}

// Config tunes the client. The zero value is usable once BaseURL is
// set; every other field has a serving-shaped default.
type Config struct {
	// BaseURL is the mcsd root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a fresh http.Client (no global state).
	HTTPClient *http.Client
	// MaxRetries is the number of re-submissions after the first
	// attempt fails retryably. Default 4.
	MaxRetries int
	// BaseBackoff is the first retry delay before jitter; each further
	// retry doubles it up to MaxBackoff. Defaults 50ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RequestTimeout bounds each individual HTTP round-trip (submit,
	// one status poll, result fetch) — a wedged server fails the call
	// instead of hanging it. Half of it, in whole seconds, is the wait
	// the submit and each status poll ask the server for (Prefer:
	// wait=N); under 2s they ask for none. Default 10s.
	RequestTimeout time.Duration
	// PollInterval is the pause between two status polls of a job that
	// outlived the submit's wait. Default 2ms.
	PollInterval time.Duration
	// BreakerThreshold consecutive failed queries open the client-side
	// breaker; 0 disables it. BreakerCooldown (default 1s) is how long
	// it stays open before a single half-open probe is allowed.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed feeds the backoff-jitter PRNG. 0 uses a fixed default —
	// deterministic either way; storms log the seed they used.
	Seed uint64
}

// Client is safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client
	rng *chaos.Rand
	br  *breaker
	// prefer is the Prefer header every call carries ("" for none).
	prefer string
}

// New validates cfg and returns a client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = chaos.DefaultSeed
	}
	c := &Client{
		cfg: cfg,
		hc:  cfg.HTTPClient,
		rng: chaos.NewRand(seed),
		br:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	if wait := cfg.RequestTimeout / 2 / time.Second; wait > 0 {
		c.prefer = "wait=" + strconv.FormatInt(int64(wait), 10)
	}
	return c, nil
}

// Query runs one query end to end — one round trip, or submit, poll,
// fetch when the job outlives the submit's wait — retrying the
// whole round-trip with jittered exponential backoff while the failure
// is retryable (the server's verdict, or a transport error that never
// produced a verdict). The caller's ctx bounds the total attempt
// budget; each HTTP call additionally gets its own RequestTimeout.
func (c *Client) Query(ctx context.Context, req server.QueryRequest) (*server.QueryResult, error) {
	probe, err := c.br.allow()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := c.once(ctx, req)
		if err == nil {
			c.br.recordSuccess(probe)
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryableErr(err) || attempt >= c.cfg.MaxRetries {
			c.giveUp(ctx, probe)
			return nil, lastErr
		}
		obsRetries.Inc()
		delay := c.backoff(attempt, err)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			c.giveUp(ctx, probe)
			return nil, fmt.Errorf("client: retry wait: %w (last failure: %v)", ctx.Err(), lastErr)
		}
	}
}

// giveUp settles the breaker for a query that is returning an error;
// probe is what allow handed this query. A caller that cancelled its
// own context — a coordinator abandoning the healthy siblings of a
// failed fan-out — says nothing about the endpoint: no failure is
// counted and a held half-open probe slot goes back. Everything else,
// an expired caller deadline included, counts.
func (c *Client) giveUp(ctx context.Context, probe bool) {
	if errors.Is(ctx.Err(), context.Canceled) {
		c.br.release(probe)
		return
	}
	c.br.recordFailure(probe)
}

// retryableErr: a typed wire error carries the server's verdict; a
// result frame that arrived and violates the format would arrive the
// same way again; any other failure is transport-level (connection
// refused, request timeout, a body cut short) and retryable by
// definition — the request may never have arrived.
func retryableErr(err error) bool {
	var we *Error
	if errors.As(err, &we) {
		return we.Retryable
	}
	return !errors.Is(err, server.ErrBadFrame)
}

// backoff computes the next delay: exponential base doubling capped at
// MaxBackoff, multiplied by a jitter in [0.5, 1.0) so synchronized
// clients de-synchronize, then raised to any Retry-After hint the
// server sent (the server knows its own load better than our schedule
// does).
func (c *Client) backoff(attempt int, err error) time.Duration {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	d = time.Duration(float64(d) * (0.5 + 0.5*c.rng.Float64()))
	var we *Error
	if errors.As(err, &we) && we.retryAfter > d {
		d = we.retryAfter
	}
	return d
}

// once is one query. The submit asks the server to wait for the job
// (Prefer: wait) and, when the job settles within the wait, is answered
// with the result frame or the job's failure: one round trip, and the
// server keeps nothing. Only a 202 — the job outlived the wait, or the
// server ignores the preference — falls back to polling the status,
// each poll a long-poll too with PollInterval between them, and
// fetching the result.
func (c *Client) once(ctx context.Context, req server.QueryRequest) (*server.QueryResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var res server.QueryResult
	var submit struct {
		JobID string `json:"job_id"`
	}
	status, err := c.do(ctx, http.MethodPost, "/query", body, map[int]reply{
		http.StatusOK:       frameReply(&res),
		http.StatusAccepted: jsonReply(&submit),
	})
	if err != nil {
		return nil, err
	}
	if status == http.StatusOK {
		return &res, nil
	}
	if submit.JobID == "" {
		return nil, &Error{Kind: "internal", Msg: "submit returned no job id"}
	}
	for {
		var st server.JobStatus
		if _, err := c.do(ctx, http.MethodGet, "/jobs/"+submit.JobID, nil, map[int]reply{http.StatusOK: jsonReply(&st)}); err != nil {
			return nil, err
		}
		switch st.State {
		case server.JobDone:
			if _, err := c.do(ctx, http.MethodGet, "/jobs/"+submit.JobID+"/result", nil, map[int]reply{http.StatusOK: frameReply(&res)}); err != nil {
				return nil, err
			}
			return &res, nil
		case server.JobFailed:
			return nil, jobFailure(st.Kind, st.Retryable, st.Error)
		}
		select {
		case <-time.After(c.cfg.PollInterval):
		case <-ctx.Done():
			return nil, fmt.Errorf("client: polling job %s: %w", submit.JobID, ctx.Err())
		}
	}
}

// jobFailure is a job's own failure, however it reached the client — a
// polled status or the outcome on a waited submit's response: the
// server's kind, verdict and message, without an HTTP status or a
// Retry-After floor, so the retry schedule does not depend on which
// round trip carried it.
func jobFailure(kind string, retryable bool, msg string) *Error {
	return &Error{Kind: kind, Retryable: retryable, Msg: msg}
}

// reply decodes a call's success body.
type reply func(*http.Response) error

// jsonReply decodes a small JSON body (submit, status) into out.
func jsonReply(out any) reply {
	return func(resp *http.Response) error {
		raw, err := readBody(resp)
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, out)
	}
}

// readBody reads a JSON body whole, up to the response limit.
func readBody(resp *http.Response) ([]byte, error) {
	return io.ReadAll(io.LimitReader(resp.Body, server.MaxResultBytes))
}

// frameReply is the client's one result decoder: it requires the result
// frame and decodes it off the socket, bounded by the response limit.
func frameReply(out *server.QueryResult) reply {
	return func(resp *http.Response) error {
		if ct := resp.Header.Get("Content-Type"); ct != server.ResultFrameType {
			return fmt.Errorf("%w: Content-Type %q, want %q", server.ErrBadFrame, ct, server.ResultFrameType)
		}
		res, err := server.ReadResultFrame(resp.Body, server.MaxResultBytes)
		if err != nil {
			return err
		}
		*out = *res
		return nil
	}
}

// do performs one HTTP call under its own deadline, carrying the
// client's Prefer header, and hands a reply of an expected status to
// its decoder, returning that status; any other status is read as the
// typed JSON error body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, replies map[int]reply) (int, error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(rctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return 0, fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if c.prefer != "" {
		hreq.Header.Set("Prefer", c.prefer)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if decode, ok := replies[resp.StatusCode]; ok {
		if err := decode(resp); err != nil {
			return 0, fmt.Errorf("client: decoding %s %s: %w", method, path, err)
		}
		return resp.StatusCode, nil
	}
	raw, err := readBody(resp)
	if err != nil {
		return 0, fmt.Errorf("client: reading %s %s: %w", method, path, err)
	}
	var eb struct {
		Error     string `json:"error"`
		Kind      string `json:"kind"`
		Retryable bool   `json:"retryable"`
	}
	parsed := json.Unmarshal(raw, &eb) == nil && eb.Error != ""
	if parsed && resp.Header.Get("Preference-Applied") == "wait" {
		// The job settled within the wait and failed: its outcome, not a
		// refusal of the call.
		return 0, jobFailure(eb.Kind, eb.Retryable, eb.Error)
	}
	we := &Error{Status: resp.StatusCode, Kind: "internal", Msg: fmt.Sprintf("%s %s: status %d", method, path, resp.StatusCode)}
	if parsed {
		we.Kind = eb.Kind
		we.Retryable = eb.Retryable
		we.Msg = eb.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			we.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return 0, we
}
