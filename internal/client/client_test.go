package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/server"
	"repro/internal/testutil"
)

func TestMain(m *testing.M) {
	obs.Enable()
	os.Exit(m.Run())
}

// fakeJob scripts one mcsd job lifecycle for a test server.
type fakeJob struct {
	id     string
	status server.JobStatus
	result *server.QueryResult
}

// fakeServer speaks just enough of the mcsd wire protocol: a scripted
// response per submission, in order. submitFail, when set, intercepts
// the POST entirely.
type fakeServer struct {
	t          *testing.T
	jobs       []fakeJob
	submits    atomic.Int64                              // all POSTs, intercepted or not
	accepted   atomic.Int64                              // POSTs that reached the scripted job list
	submitFail func(w http.ResponseWriter, n int64) bool // n is 1-based submit count
}

func (f *fakeServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		n := f.submits.Add(1)
		if f.submitFail != nil && f.submitFail(w, n) {
			return
		}
		idx := int(f.accepted.Add(1)) - 1
		if idx >= len(f.jobs) {
			f.t.Errorf("unexpected submit #%d", n)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"job_id": f.jobs[idx].id})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		for _, j := range f.jobs {
			if j.id == r.PathValue("id") {
				json.NewEncoder(w).Encode(j.status)
				return
			}
		}
		w.WriteHeader(http.StatusNotFound)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		for _, j := range f.jobs {
			if j.id == r.PathValue("id") && j.result != nil {
				w.Header().Set("Content-Type", server.ResultFrameType)
				if err := server.WriteResultFrame(w, j.result); err != nil {
					f.t.Errorf("writing result frame: %v", err)
				}
				return
			}
		}
		w.WriteHeader(http.StatusNotFound)
	})
	return mux
}

func newClient(t *testing.T, hs *httptest.Server, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:     hs.URL,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        7,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var okReq = server.QueryRequest{Table: "t", Kind: "orderby", SortCols: []server.SortColReq{{Name: "a"}}}

// TestRetryOnRetryableThenSucceed: two retryable failures (one typed
// queue timeout, one transport-level 500-with-retryable-body), then
// success. The client retries through both and returns the result.
func TestRetryOnRetryableThenSucceed(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	fs := &fakeServer{
		t: t,
		jobs: []fakeJob{{
			id:     "j3",
			status: server.JobStatus{ID: "j3", State: server.JobDone},
			result: &server.QueryResult{JobID: "j3", Rows: 42},
		}},
		submitFail: func(w http.ResponseWriter, n int64) bool {
			if n <= 2 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(map[string]any{
					"error": "queue full", "kind": "queue_timeout", "retryable": true,
				})
				return true
			}
			return false
		},
	}
	hs := httptest.NewServer(fs.handler())
	defer hs.Close()
	c := newClient(t, hs, nil)
	res, err := c.Query(context.Background(), okReq)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Rows != 42 {
		t.Errorf("rows = %d, want 42", res.Rows)
	}
	if got := fs.submits.Load(); got != 3 {
		t.Errorf("submits = %d, want 3 (2 retries)", got)
	}
}

// TestNoRetryOnNonRetryable: a 400 invalid-request must fail
// immediately — retrying a malformed query cannot help.
func TestNoRetryOnNonRetryable(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	fs := &fakeServer{
		t: t,
		submitFail: func(w http.ResponseWriter, n int64) bool {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "invalid: no sort cols", "kind": "invalid", "retryable": false,
			})
			return true
		},
	}
	hs := httptest.NewServer(fs.handler())
	defer hs.Close()
	c := newClient(t, hs, nil)
	_, err := c.Query(context.Background(), okReq)
	if err == nil {
		t.Fatal("invalid query succeeded")
	}
	var we *Error
	if !errors.As(err, &we) || we.Kind != "invalid" || we.Retryable {
		t.Fatalf("error = %v, want typed non-retryable invalid", err)
	}
	if got := fs.submits.Load(); got != 1 {
		t.Errorf("submits = %d, want 1 (no retry)", got)
	}
}

// TestRetryableJobFailure: an accepted job that fails with a retryable
// kind (watchdog) is retried via a fresh submission, and the wire kind
// unwraps to the pipeerr sentinel.
func TestRetryableJobFailure(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	fs := &fakeServer{
		t: t,
		jobs: []fakeJob{
			{id: "j1", status: server.JobStatus{
				ID: "j1", State: server.JobFailed,
				Error: "watchdog killed it", Kind: "watchdog", Retryable: true,
			}},
			{id: "j2",
				status: server.JobStatus{ID: "j2", State: server.JobDone},
				result: &server.QueryResult{JobID: "j2", Rows: 7}},
		},
	}
	hs := httptest.NewServer(fs.handler())
	defer hs.Close()
	c := newClient(t, hs, nil)
	res, err := c.Query(context.Background(), okReq)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Rows != 7 {
		t.Errorf("rows = %d, want 7", res.Rows)
	}
	if got := fs.submits.Load(); got != 2 {
		t.Errorf("submits = %d, want 2", got)
	}
}

// TestErrorUnwrapsToSentinels pins the cross-wire error vocabulary.
func TestErrorUnwrapsToSentinels(t *testing.T) {
	cases := []struct {
		kind string
		want error
	}{
		{"queue_timeout", pipeerr.ErrQueueTimeout},
		{"budget", pipeerr.ErrBudgetExceeded},
		{"watchdog", pipeerr.ErrWatchdog},
	}
	for _, tc := range cases {
		err := error(&Error{Kind: tc.kind, Retryable: true, Msg: "x"})
		if !errors.Is(err, tc.want) {
			t.Errorf("kind %q does not unwrap to %v", tc.kind, tc.want)
		}
	}
	if errors.Is(error(&Error{Kind: "internal"}), pipeerr.ErrWatchdog) {
		t.Error("internal kind must not unwrap to a sentinel")
	}
}

// TestRetriesExhausted: a server that always sheds load exhausts
// MaxRetries and the last typed error surfaces.
func TestRetriesExhausted(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	fs := &fakeServer{
		t: t,
		submitFail: func(w http.ResponseWriter, n int64) bool {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "over budget", "kind": "budget", "retryable": true,
			})
			return true
		},
	}
	hs := httptest.NewServer(fs.handler())
	defer hs.Close()
	c := newClient(t, hs, func(cfg *Config) { cfg.MaxRetries = 2 })
	_, err := c.Query(context.Background(), okReq)
	if !errors.Is(err, pipeerr.ErrBudgetExceeded) {
		t.Fatalf("error = %v, want budget sentinel", err)
	}
	if got := fs.submits.Load(); got != 3 {
		t.Errorf("submits = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestBreakerTripProbeRecover: consecutive exhausted queries open the
// client breaker (fail-fast, no network), the cooldown admits exactly
// one probe, and a probe success closes it again.
func TestBreakerTripProbeRecover(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	var failing atomic.Bool
	failing.Store(true)
	fs := &fakeServer{
		t: t,
		jobs: []fakeJob{
			{id: "ok", status: server.JobStatus{ID: "ok", State: server.JobDone},
				result: &server.QueryResult{JobID: "ok", Rows: 1}},
		},
		submitFail: func(w http.ResponseWriter, n int64) bool {
			if failing.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]any{
					"error": "down", "kind": "budget", "retryable": true,
				})
				return true
			}
			// The success path always serves job "ok".
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"job_id": "ok"})
			return true
		},
	}
	hs := httptest.NewServer(fs.handler())
	defer hs.Close()
	const cooldown = 50 * time.Millisecond
	c := newClient(t, hs, func(cfg *Config) {
		cfg.MaxRetries = 0 // 1 attempt per Query: failures count fast
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = cooldown
	})

	for i := 0; i < 2; i++ {
		if _, err := c.Query(context.Background(), okReq); err == nil {
			t.Fatal("query against failing server succeeded")
		}
	}
	before := fs.submits.Load()
	// Open: fail fast without touching the server.
	if _, err := c.Query(context.Background(), okReq); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker error = %v, want ErrBreakerOpen", err)
	}
	if fs.submits.Load() != before {
		t.Error("open breaker still hit the network")
	}

	// Cooldown elapses; the server recovers; the probe closes the
	// breaker.
	failing.Store(false)
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, err := c.Query(context.Background(), okReq); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	// Closed again: ordinary queries flow.
	if _, err := c.Query(context.Background(), okReq); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
}

// TestBreakerFailedProbeReopens: a failed half-open probe re-opens the
// breaker for a fresh cooldown instead of letting traffic through.
func TestBreakerFailedProbeReopens(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	fs := &fakeServer{
		t: t,
		submitFail: func(w http.ResponseWriter, n int64) bool {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "down", "kind": "budget", "retryable": true,
			})
			return true
		},
	}
	hs := httptest.NewServer(fs.handler())
	defer hs.Close()
	const cooldown = 40 * time.Millisecond
	c := newClient(t, hs, func(cfg *Config) {
		cfg.MaxRetries = 0
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = cooldown
	})
	if _, err := c.Query(context.Background(), okReq); err == nil {
		t.Fatal("query against failing server succeeded")
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	// The probe fails → breaker re-opens immediately.
	if _, err := c.Query(context.Background(), okReq); errors.Is(err, ErrBreakerOpen) || err == nil {
		t.Fatalf("probe result = %v, want a server failure", err)
	}
	if _, err := c.Query(context.Background(), okReq); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("post-failed-probe error = %v, want ErrBreakerOpen", err)
	}
}

// TestBreakerIgnoresCallerCancel: a query abandoned by its own caller
// (context.Canceled — a coordinator dropping the healthy siblings of a
// failed fan-out) is no verdict on the endpoint. With threshold 1 it
// must not trip a closed breaker, and when the abandoned query was the
// half-open probe the slot goes back: the next caller probes and, the
// endpoint having recovered, closes the breaker — instead of finding it
// re-opened for another cooldown.
func TestBreakerIgnoresCallerCancel(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	var mode atomic.Value // "ok", "down", or "hang"
	mode.Store("ok")
	hung, unhang := make(chan struct{}), make(chan struct{})
	fs := &fakeServer{t: t, jobs: []fakeJob{
		{id: "ok", status: server.JobStatus{ID: "ok", State: server.JobDone},
			result: &server.QueryResult{JobID: "ok", Rows: 1}},
	}}
	jobs := fs.handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method != http.MethodPost:
			jobs.ServeHTTP(w, r)
		case mode.Load() == "hang":
			hung <- struct{}{}
			<-unhang // until the caller has given up
		case mode.Load() == "down":
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"error": "down", "kind": "budget", "retryable": true})
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"job_id": "ok"})
		}
	}))
	defer hs.Close()
	const cooldown = 40 * time.Millisecond
	c := newClient(t, hs, func(cfg *Config) {
		cfg.MaxRetries = 0
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = cooldown
	})
	abandon := func(label string) {
		t.Helper()
		mode.Store("hang")
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-hung
			cancel()
		}()
		_, err := c.Query(ctx, okReq)
		unhang <- struct{}{}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: abandoned query: err = %v, want context.Canceled", label, err)
		}
		mode.Store("ok")
	}

	abandon("closed breaker")
	if _, err := c.Query(context.Background(), okReq); err != nil {
		t.Fatalf("query after an abandoned one: %v (a caller's cancel must not trip the breaker)", err)
	}

	mode.Store("down")
	if _, err := c.Query(context.Background(), okReq); err == nil {
		t.Fatal("query against a failing server succeeded")
	}
	if _, err := c.Query(context.Background(), okReq); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tripped breaker: err = %v, want ErrBreakerOpen", err)
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	abandon("half-open probe")
	if _, err := c.Query(context.Background(), okReq); err != nil {
		t.Fatalf("query after an abandoned probe: %v (the next caller must get the probe slot)", err)
	}
}

// TestBreakerProbeOwnership: while the half-open probe is in flight,
// only its holder settles the breaker. Queries admitted before the trip
// that fail or are cancelled meanwhile must leave the state, the trip
// time and the probe slot alone until the probe itself returns. Before
// allow handed the probe to its caller, recordFailure and release read
// and cleared the shared probing flag for whoever called them: the
// older failure re-opened the breaker on the prober's behalf and the
// older cancel freed the slot for a second concurrent probe.
func TestBreakerProbeOwnership(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	fs := &fakeServer{t: t, jobs: []fakeJob{
		{id: "ok", status: server.JobStatus{ID: "ok", State: server.JobDone},
			result: &server.QueryResult{JobID: "ok", Rows: 1}},
	}}
	jobs := fs.handler()
	arrived := make(chan string, 4) // one send per held submit: older-fail, older-cancel, probe
	release := map[string]chan struct{}{
		"older-fail": make(chan struct{}), "older-cancel": make(chan struct{}), "probe": make(chan struct{}),
	}
	down := func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"error": "down", "kind": "budget", "retryable": true})
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			jobs.ServeHTTP(w, r)
			return
		}
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding submit: %v", err)
		}
		if ch := release[req.ID]; ch != nil {
			arrived <- req.ID
			<-ch
		}
		switch req.ID {
		case "older-fail", "trip":
			down(w)
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"job_id": "ok"})
		}
	}))
	defer hs.Close()
	const cooldown = 30 * time.Millisecond
	c := newClient(t, hs, func(cfg *Config) {
		cfg.MaxRetries = 0
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = cooldown
	})
	type outcome struct {
		id  string
		err error
	}
	done := make(chan outcome, 3)
	start := func(ctx context.Context, id string) {
		req := okReq
		req.ID = id
		go func() {
			_, err := c.Query(ctx, req)
			done <- outcome{id, err}
		}()
		if got := <-arrived; got != id {
			t.Fatalf("submit %q arrived, want %q", got, id)
		}
	}
	state := func() (tripped, probing bool, at time.Time) {
		c.br.mu.Lock()
		defer c.br.mu.Unlock()
		return c.br.tripped, c.br.probing, c.br.trippedAt
	}

	// Two queries admitted while the breaker is closed, held in flight.
	cancelCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start(context.Background(), "older-fail")
	start(cancelCtx, "older-cancel")
	// Trip, cool down, and hold the probe in flight.
	trip := okReq
	trip.ID = "trip"
	if _, err := c.Query(context.Background(), trip); err == nil {
		t.Fatal("query against a failing server succeeded")
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	start(context.Background(), "probe")
	_, _, trippedAt := state()

	// The older queries end: one fails, one is cancelled by its caller.
	close(release["older-fail"])
	if o := <-done; o.id != "older-fail" || o.err == nil {
		t.Fatalf("first to return: %q, err %v; want older-fail failing", o.id, o.err)
	}
	cancel()
	if o := <-done; o.id != "older-cancel" || !errors.Is(o.err, context.Canceled) {
		t.Fatalf("second to return: %q, err %v; want older-cancel cancelled", o.id, o.err)
	}
	close(release["older-cancel"])

	if tripped, probing, at := state(); !tripped || !probing || !at.Equal(trippedAt) {
		t.Errorf("with the probe in flight: tripped=%v probing=%v trippedAt moved=%v; want the breaker half-open, untouched",
			tripped, probing, !at.Equal(trippedAt))
	}
	if _, err := c.Query(context.Background(), okReq); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("query while the probe is in flight: err = %v, want ErrBreakerOpen (the slot is taken)", err)
	}

	// The probe returns: its verdict, and only its, closes the breaker.
	close(release["probe"])
	if o := <-done; o.id != "probe" || o.err != nil {
		t.Fatalf("probe: %q, err %v; want success", o.id, o.err)
	}
	if tripped, probing, _ := state(); tripped || probing {
		t.Errorf("after the probe succeeded: tripped=%v probing=%v, want closed", tripped, probing)
	}
	if _, err := c.Query(context.Background(), okReq); err != nil {
		t.Errorf("query after recovery: %v", err)
	}
}

// TestPerRequestDeadline: a server that never answers one HTTP call
// fails that call within RequestTimeout instead of hanging the caller.
func TestPerRequestDeadline(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // wedge every request until test end
	}))
	defer func() {
		close(release)
		hs.Close()
	}()
	c := newClient(t, hs, func(cfg *Config) {
		cfg.MaxRetries = 0
		cfg.RequestTimeout = 30 * time.Millisecond
	})
	start := time.Now()
	_, err := c.Query(context.Background(), okReq)
	if err == nil {
		t.Fatal("wedged server: query succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("wedged call took %v, want ~RequestTimeout", elapsed)
	}
}

// TestBackoffHonorsRetryAfter: a Retry-After hint larger than the
// computed backoff raises the delay floor.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x", BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	we := &Error{Kind: "budget", Retryable: true, retryAfter: time.Second}
	if d := c.backoff(0, we); d < time.Second {
		t.Errorf("backoff = %v, want >= Retry-After (1s)", d)
	}
	// Without the hint the delay stays near the configured cap.
	if d := c.backoff(0, fmt.Errorf("plain")); d > 2*time.Millisecond {
		t.Errorf("backoff = %v, want <= MaxBackoff", d)
	}
}

// TestBackoffDeterministicBySeed: identical seeds yield identical
// jitter schedules — the reproduce-by-seed contract extends to the
// client.
func TestBackoffDeterministicBySeed(t *testing.T) {
	mk := func() []time.Duration {
		c, err := New(Config{BaseURL: "http://x", BaseBackoff: time.Millisecond, MaxBackoff: time.Hour, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		var ds []time.Duration
		for i := 0; i < 8; i++ {
			ds = append(ds, c.backoff(i, fmt.Errorf("x")))
		}
		return ds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
