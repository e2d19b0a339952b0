package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/testutil"
)

// TestPreferFromRequestTimeout: every call asks for half the
// per-request deadline in whole seconds, and none under 2s.
func TestPreferFromRequestTimeout(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		want    string
	}{
		{0, "wait=5"}, // the 10s default
		{3 * time.Second, "wait=1"},
		{2 * time.Second, "wait=1"},
		{1999 * time.Millisecond, ""},
		{30 * time.Millisecond, ""},
	} {
		var got atomic.Value
		got.Store("unset")
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got.Store(r.Header.Get("Prefer"))
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": "no", "kind": "invalid"})
		}))
		c := newClient(t, hs, func(cfg *Config) { cfg.RequestTimeout = tc.timeout })
		if _, err := c.Query(context.Background(), okReq); err == nil {
			t.Error("refused query succeeded")
		}
		hs.Close()
		if got.Load() != tc.want {
			t.Errorf("RequestTimeout %v: Prefer %q, want %q", tc.timeout, got.Load(), tc.want)
		}
	}
}

// TestDeliveredResultOneRoundTrip: a server that honours the wait
// answers the submit with the frame, and the client asks nothing else.
func TestDeliveredResultOneRoundTrip(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	want := &server.QueryResult{JobID: "j1", Table: "t", Rows: 3, RowOids: []uint32{2, 0, 1}, Ranks: []uint32{1, 2, 3}}
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Preference-Applied", "wait")
		w.Header().Set("Content-Type", server.ResultFrameType)
		if err := server.WriteResultFrame(w, want); err != nil {
			t.Error(err)
		}
	}))
	defer hs.Close()
	res, err := newClient(t, hs, nil).Query(context.Background(), okReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobID != "j1" || res.Rows != 3 || len(res.RowOids) != 3 {
		t.Errorf("result %+v", res)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d HTTP calls, want 1", got)
	}
}

// TestFallbackPollsAtPollInterval: against a server that ignores the
// preference — every status answers at once — the fallback loop still
// pauses PollInterval between status requests instead of spinning.
func TestFallbackPollsAtPollInterval(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const poll = 5 * time.Millisecond
	var statuses atomic.Int64
	var doneAt atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Prefer") != "wait=5" {
			t.Errorf("%s %s: Prefer %q, want wait=5", r.Method, r.URL.Path, r.Header.Get("Prefer"))
		}
		switch r.URL.Path {
		case "/query":
			doneAt.Store(time.Now().Add(60 * time.Millisecond).UnixNano())
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(map[string]string{"job_id": "j1"})
		case "/jobs/j1":
			statuses.Add(1)
			st := server.JobStatus{ID: "j1", State: server.JobRunning}
			if time.Now().UnixNano() >= doneAt.Load() {
				st.State = server.JobDone
			}
			_ = json.NewEncoder(w).Encode(st)
		case "/jobs/j1/result":
			w.Header().Set("Content-Type", server.ResultFrameType)
			if err := server.WriteResultFrame(w, &server.QueryResult{JobID: "j1", Rows: 9}); err != nil {
				t.Error(err)
			}
		}
	}))
	defer hs.Close()
	c := newClient(t, hs, func(cfg *Config) { cfg.PollInterval = poll })
	start := time.Now()
	res, err := c.Query(context.Background(), okReq)
	elapsed := time.Since(start)
	if err != nil || res.Rows != 9 {
		t.Fatalf("res %+v err %v", res, err)
	}
	if got, max := statuses.Load(), int64(elapsed/poll)+1; got > max || got < 2 {
		t.Errorf("%d status requests in %v, want 2..%d at one per %v", got, elapsed, max, poll)
	}
}

// TestJobFailureParity: a job failure delivered on the submit response
// reads exactly as the same failure polled from the job's status — the
// kind, verdict, message and sentinel — and adds no Retry-After floor
// to the backoff, although the server sends the hint on a 429 or 503
// answer.
func TestJobFailureParity(t *testing.T) {
	for _, kind := range []string{"queue_timeout", "budget", "watchdog", "pipeline", "invalid"} {
		class, ok := server.ClassOfKind(kind)
		if !ok {
			t.Fatalf("kind %q not in the taxonomy", kind)
		}
		msg := kind + " failure"
		polled := &fakeServer{t: t, jobs: []fakeJob{{id: "j1", status: server.JobStatus{
			ID: "j1", State: server.JobFailed, Error: msg, Kind: kind, Retryable: class.Retryable}}}}
		delivered := &fakeServer{t: t, submitFail: func(w http.ResponseWriter, _ int64) bool {
			w.Header().Set("Preference-Applied", "wait")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(class.Status)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "kind": kind, "retryable": class.Retryable})
			return true
		}}
		var errs [2]*Error
		var backoffs [2]time.Duration
		for i, fs := range []*fakeServer{polled, delivered} {
			hs := httptest.NewServer(fs.handler())
			c := newClient(t, hs, nil)
			_, err := c.once(context.Background(), okReq)
			hs.Close()
			if !errors.As(err, &errs[i]) {
				t.Fatalf("%s: error %v, want a typed *Error", kind, err)
			}
			if class.Sentinel != nil && !errors.Is(err, class.Sentinel) {
				t.Errorf("%s: %v does not unwrap to %v", kind, err, class.Sentinel)
			}
			backoffs[i] = c.backoff(0, err)
		}
		if *errs[0] != *errs[1] {
			t.Errorf("%s: delivered %+v, polled %+v", kind, *errs[1], *errs[0])
		}
		if backoffs[0] != backoffs[1] || backoffs[1] >= time.Second {
			t.Errorf("%s: backoff delivered %v, polled %v: the same seed must give the same schedule", kind, backoffs[1], backoffs[0])
		}
		// The same answer without Preference-Applied is a refusal of the
		// submit itself: it keeps its status and the hint's floor.
		refused := &fakeServer{t: t, submitFail: func(w http.ResponseWriter, _ int64) bool {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(class.Status)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "kind": kind, "retryable": class.Retryable})
			return true
		}}
		hs := httptest.NewServer(refused.handler())
		_, err := newClient(t, hs, nil).once(context.Background(), okReq)
		hs.Close()
		var we *Error
		if !errors.As(err, &we) || we.Status != class.Status || we.retryAfter != time.Second {
			t.Errorf("%s: refusal read as %+v, want status %d with a 1s Retry-After", kind, we, class.Status)
		}
	}
}
