package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/engine"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// TestStatusMapping pins the full wire taxonomy in one table: every
// error class maps to its own HTTP status, machine-readable kind, and
// retryability verdict — and walks the rows of server.taxonomy: each
// has a case here, agrees with pipeerr.Retryable, is found by its kind,
// and classifies its own sentinel. Before PR 8 the handlers collapsed
// queue-timeout, budget-refusal, and contained-panic failures toward
// one bucket; a regression here would send clients the wrong backoff
// policy.
func TestStatusMapping(t *testing.T) {
	pipelineErr := &pipeerr.PipelineError{Stage: pipeerr.StageSort, Round: 1, Worker: 2, Err: errors.New("boom")}
	serveErr := &pipeerr.PipelineError{Stage: pipeerr.StageServe, Round: -1, Worker: -1, Err: errors.New("poison")}
	// A 3-bit column cannot hold the code 8.
	_, outOfDomain := byteslice.FromColumn(column.FromCodes("c", 3, []uint64{1, 2, 3})).Scan(byteslice.EQ, 8)
	if outOfDomain == nil {
		t.Fatal("scan for a constant outside the domain succeeded")
	}
	cases := []struct {
		name      string
		err       error
		status    int
		kind      string
		retryable bool
	}{
		{"invalid request", fmt.Errorf("%w: bad", ErrInvalidRequest), http.StatusBadRequest, "invalid", false},
		{"unknown column", fmt.Errorf("engine: %w: %q", engine.ErrUnknownColumn, "nosuch"), http.StatusBadRequest, "invalid", false},
		{"filter constant outside the domain", outOfDomain, http.StatusBadRequest, "invalid", false},
		{"no such job", fmt.Errorf("%w: %q", errNoJob, "j9"), http.StatusNotFound, "not_found", false},
		{"not finished", fmt.Errorf("%w: job j1 is running", errNotFinished), http.StatusConflict, "not_finished", false},
		{"shutting down", ErrShuttingDown, http.StatusServiceUnavailable, "shutdown", false},
		{"queue timeout", pipeerr.QueueTimeout(context.DeadlineExceeded), http.StatusTooManyRequests, "queue_timeout", true},
		{"budget refusal", fmt.Errorf("server: %w", pipeerr.ErrBudgetExceeded), http.StatusServiceUnavailable, "budget", true},
		{"watchdog kill", pipeerr.Watchdog(3*time.Second, time.Second), http.StatusGatewayTimeout, "watchdog", true},
		{"client deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "execution_timeout", false},
		{"client cancel", context.Canceled, http.StatusGatewayTimeout, "execution_timeout", false},
		{"contained worker panic", pipelineErr, http.StatusInternalServerError, "pipeline", true},
		{"contained serve panic", serveErr, http.StatusInternalServerError, "pipeline", true},
		{"unclassified", errors.New("mystery"), http.StatusInternalServerError, "internal", false},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind, retryable, status := Classify(tc.err)
			if status != tc.status {
				t.Errorf("status = %d, want %d", status, tc.status)
			}
			if kind != tc.kind {
				t.Errorf("kind = %q, want %q", kind, tc.kind)
			}
			if retryable != tc.retryable {
				t.Errorf("retryable = %v, want %v", retryable, tc.retryable)
			}
			// The taxonomy's verdict is pipeerr's, row by row.
			if got := pipeerr.Retryable(tc.err); got != retryable {
				t.Errorf("pipeerr.Retryable = %v, the %s row says %v", got, kind, retryable)
			}
			covered[kind] = true
		})
	}
	for _, c := range taxonomy {
		if !covered[c.Kind] {
			t.Errorf("taxonomy row %q has no case above", c.Kind)
		}
		if byKind, ok := ClassOfKind(c.Kind); !ok || byKind.Status != c.Status || byKind.Retryable != c.Retryable {
			t.Errorf("ClassOfKind(%q) = %+v, %v", c.Kind, byKind, ok)
		}
		if c.Sentinel != nil {
			if kind, _, _ := Classify(c.Sentinel); kind != c.Kind {
				t.Errorf("row %q: its sentinel classifies as %q", c.Kind, kind)
			}
		}
	}
	if _, ok := ClassOfKind("shard_unavailable"); ok {
		t.Error("ClassOfKind knows a kind the single-node taxonomy does not have")
	}
}

// TestWriteErrorBody asserts the wire error body carries the kind and
// retryable fields, and that the load-induced statuses advertise
// Retry-After.
func TestWriteErrorBody(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, Classify, pipeerr.QueueTimeout(context.DeadlineExceeded))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	var body struct {
		Error     string `json:"error"`
		Kind      string `json:"kind"`
		Retryable bool   `json:"retryable"`
	}
	if err := decodeBody(rec.Result(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "queue_timeout" || !body.Retryable || body.Error == "" {
		t.Errorf("body = %+v", body)
	}

	rec = httptest.NewRecorder()
	writeError(rec, Classify, fmt.Errorf("%w: nope", ErrInvalidRequest))
	if rec.Header().Get("Retry-After") != "" {
		t.Error("400 must not carry Retry-After")
	}
}

// TestStatusMappingOverHTTP drives the single-node-only status through
// the real handler stack: a budget refusal is 503 + Retry-After with
// the typed kind, and the job status JSON carries the retryable flag.
// The statuses both daemons share (400/404/409, drain 503) are pinned
// once for both fronts by internal/shard's TestWireContract.
func TestStatusMappingOverHTTP(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 4000)
	// MaxBytes 1: every query is refused up front with the typed
	// budget error.
	srv := newTestServer(t, Config{MaxBytes: 1}, tbl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := QueryRequest{Table: tbl.Name, Kind: "orderby", SortCols: []SortColReq{{Name: "l_returnflag"}}, Workers: 2}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submit struct {
		JobID string `json:"job_id"`
	}
	if err := decodeBody(resp, &submit); err != nil {
		t.Fatal(err)
	}
	// Poll until the job fails, then check status fields and result
	// status code.
	deadline := time.Now().Add(10 * time.Second)
	var st JobStatus
	for {
		resp, err := http.Get(hs.URL + "/jobs/" + submit.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeBody(resp, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobFailed || st.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != JobFailed || st.Kind != "budget" || !st.Retryable {
		t.Fatalf("status = %+v, want failed/budget/retryable", st)
	}
	resp, err = http.Get(hs.URL + "/jobs/" + submit.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("budget-refused result = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("budget refusal must carry Retry-After")
	}
}
