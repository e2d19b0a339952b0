// The coordinator's wire surface: a client that speaks mcsd's protocol
// must get the single-node answer and the single-node error taxonomy
// from a coordinator without being able to tell the difference.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/column"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/testutil"
)

// TestCoordinatorHTTPRoundTrip drives submit → poll → result through
// the retrying client against a 3-shard topology and compares against
// the direct engine oracle.
func TestCoordinatorHTTPRoundTrip(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 3, Config{})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()

	req := server.QueryRequest{
		Table:    "narrow99",
		Kind:     "groupby",
		SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
		Agg:      &server.AggReq{Kind: "avg", Col: "v"},
		Workers:  4,
	}
	want := runOracle(t, tables[1], req, 4)

	cl, err := client.New(client.Config{BaseURL: hs.URL, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonServer(t, res); !bytes.Equal(got, want) {
		t.Errorf("wire result diverges from the engine oracle\n got: %s\nwant: %s", got, want)
	}
}

// wire is a JSON-over-HTTP test client for one daemon.
type wire struct {
	t   *testing.T
	url string
}

func (w wire) do(resp *http.Response, err error) (*http.Response, map[string]any) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		w.t.Fatalf("%s: decoding body: %v", resp.Request.URL.Path, err)
	}
	return resp, body
}

func (w wire) get(path string) (*http.Response, map[string]any) {
	w.t.Helper()
	return w.do(http.Get(w.url + path))
}

func (w wire) post(payload string) (*http.Response, map[string]any) {
	w.t.Helper()
	return w.do(http.Post(w.url+"/query", "application/json", strings.NewReader(payload)))
}

// fetch GETs path with the given Accept header ("" sends none) and
// returns the response with its whole body.
func (w wire) fetch(path, accept string) (*http.Response, []byte) {
	w.t.Helper()
	req, err := http.NewRequest(http.MethodGet, w.url+path, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatalf("%s: reading body: %v", path, err)
	}
	return resp, body
}

// query POSTs payload with the given Prefer header ("" sends none) and
// returns the response with its whole body.
func (w wire) query(payload, prefer string) (*http.Response, []byte) {
	w.t.Helper()
	req, err := http.NewRequest(http.MethodPost, w.url+"/query", strings.NewReader(payload))
	if err != nil {
		w.t.Fatal(err)
	}
	if prefer != "" {
		req.Header.Set("Prefer", prefer)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatalf("POST /query: reading body: %v", err)
	}
	return resp, body
}

// accepted asserts a 202 {"job_id"} answer and returns the id.
func (w wire) accepted(label string, resp *http.Response, body []byte) string {
	w.t.Helper()
	var submit struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &submit); resp.StatusCode != http.StatusAccepted || err != nil || submit.JobID == "" {
		w.t.Fatalf("%s: status %d body %q, want 202 with a job id", label, resp.StatusCode, body)
	}
	if resp.Header.Get("Preference-Applied") != "" {
		w.t.Errorf("%s: a 202 says Preference-Applied %q", label, resp.Header.Get("Preference-Applied"))
	}
	return submit.JobID
}

// wantError asserts an error response: status, machine-readable kind, a
// message, and Retry-After exactly on the load-induced statuses.
func (w wire) wantError(label string, resp *http.Response, body map[string]any, status int, kind string) {
	w.t.Helper()
	if resp.StatusCode != status || body["kind"] != kind || body["error"] == "" {
		w.t.Errorf("%s: status %d body %v, want %d/%s", label, resp.StatusCode, body, status, kind)
	}
	if _, ok := body["retryable"].(bool); !ok {
		w.t.Errorf("%s: body %v has no retryable flag", label, body)
	}
	wantRetryAfter := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	if got := resp.Header.Get("Retry-After") != ""; got != wantRetryAfter {
		w.t.Errorf("%s: Retry-After present = %v, want %v", label, got, wantRetryAfter)
	}
}

// submit posts a query that must be accepted and returns its job id.
func (w wire) submit(label, payload string) string {
	w.t.Helper()
	resp, body := w.post(payload)
	if resp.StatusCode != http.StatusAccepted {
		w.t.Fatalf("%s: submit status %d (%v)", label, resp.StatusCode, body)
	}
	return body["job_id"].(string)
}

// settled polls the job until it is done or failed and returns its
// final JobStatus body.
func (w wire) settled(label, id string) map[string]any {
	w.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, st := w.get("/jobs/" + id)
		if st["state"] == string(server.JobFailed) || st["state"] == string(server.JobDone) {
			return st
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("%s: job %s never settled: %v", label, id, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// wantFailed submits payload and asserts the job fails with kind, not
// retryable, and that fetching its result maps to status.
func (w wire) wantFailed(label, payload, kind string, status int) {
	w.t.Helper()
	id := w.submit(label, payload)
	st := w.settled(label, id)
	if st["state"] != string(server.JobFailed) || st["kind"] != kind || st["retryable"] == true {
		w.t.Errorf("%s: status %v, want failed/%s/not-retryable", label, st, kind)
	}
	resp, body := w.get("/jobs/" + id + "/result")
	w.wantError(label+" result", resp, body, status, kind)
}

// TestWireContract pins the wire contract once for both daemons: the
// same table of requests runs against a single-node Server's handler
// and a Coordinator's, which serve through the same server.Front. A
// client that speaks mcsd's protocol must not be able to tell them
// apart — routes, status codes, the {error, kind, retryable} body,
// Retry-After, and the drain behaviour are one contract.
func TestWireContract(t *testing.T) {
	tables := batteryTables(t)
	type daemon struct {
		handler  http.Handler
		result   func(id string) (*server.QueryResult, error)
		shutdown func(context.Context) error
		cleanup  func()
	}
	daemons := map[string]func(t *testing.T) daemon{
		"server": func(t *testing.T) daemon {
			reg := server.NewRegistry()
			for _, tbl := range tables {
				if err := reg.Register(tbl); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := server.New(server.Config{Registry: reg, Model: server.BuiltinModel(),
				MaxPlans: testMaxPlans, MaxConcurrent: 2})
			if err != nil {
				t.Fatal(err)
			}
			return daemon{srv.Handler(), srv.Result, srv.Shutdown, func() {}}
		},
		"coordinator": func(t *testing.T) daemon {
			coord, done := newTopology(t, tables, 2, Config{})
			return daemon{coord.Handler(), coord.Result, coord.Shutdown, done}
		},
	}
	const valid = `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"},{"name":"b"}]}`
	for name, start := range daemons {
		t.Run(name, func(t *testing.T) {
			defer testutil.CheckNoLeaks(t)()
			d := start(t)
			hs := httptest.NewServer(d.handler)
			defer d.cleanup()
			defer hs.Close()
			w := wire{t, hs.URL}

			for path, status := range map[string]string{"/healthz": "ok", "/livez": "alive", "/readyz": "ready"} {
				if resp, body := w.get(path); resp.StatusCode != http.StatusOK || body["status"] != status {
					t.Errorf("%s = %d %v, want 200/%s", path, resp.StatusCode, body, status)
				}
			}
			if resp, body := w.get("/tables"); resp.StatusCode != http.StatusOK || len(body["tables"].([]any)) != len(tables) {
				t.Errorf("/tables = %d %v", resp.StatusCode, body)
			}
			if resp, _ := w.get("/metrics"); resp.StatusCode != http.StatusOK {
				t.Errorf("/metrics = %d, want 200", resp.StatusCode)
			}

			// Rejected at submit: 400 invalid, before any job exists.
			for label, payload := range map[string]string{
				"malformed body": `{"bad json`,
				"unknown field":  `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"}],"bogus":1}`,
				"bad kind":       `{"table":"narrow0","kind":"sortby","sort_cols":[{"name":"a"}]}`,
				"oversized body": strings.Repeat(" ", 1<<20) + valid,
				// A col_order Validate refuses (it reorders an orderby).
				"reordering col_order": `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"},{"name":"b"}],"col_order":[1,0]}`,
			} {
				resp, body := w.post(payload)
				w.wantError(label, resp, body, http.StatusBadRequest, "invalid")
			}

			for _, path := range []string{"/jobs/zz", "/jobs/zz/result"} {
				resp, body := w.get(path)
				w.wantError("unknown job "+path, resp, body, http.StatusNotFound, "not_found")
			}

			// A valid submit against a missing table is accepted and fails
			// asynchronously as the caller's mistake, not an internal fault.
			w.wantFailed("unknown table", `{"table":"nope","kind":"orderby","sort_cols":[{"name":"a"}]}`, "invalid", http.StatusBadRequest)
			// So is a column the table does not have, in any position, and a
			// filter constant its column cannot hold.
			for label, payload := range map[string]string{
				"unknown sort column":         `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"},{"name":"nosuch"}]}`,
				"unknown window order column": `{"table":"narrow0","kind":"partitionby","sort_cols":[{"name":"a"}],"window":{"order_col":"nosuch"}}`,
				"unknown filter column":       `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"nosuch","op":"eq","const":1}]}`,
				"unknown aggregate column":    `{"table":"narrow0","kind":"groupby","sort_cols":[{"name":"a"}],"agg":{"kind":"sum","col":"nosuch"}}`,
				// f is 6 bits wide: no code of it can be 1000 (a filter
				// runs on each shard; the coordinator propagates the kind).
				"filter constant outside the domain": `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"f","op":"le","const":1000}]}`,
				"between bound outside the domain":   `{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"f","between":true,"lo":1,"hi":1000}]}`,
			} {
				w.wantFailed(label, payload, "invalid", http.StatusBadRequest)
			}

			// Result before finish: hold the query inside the sort's
			// massage (the coordinator's shards run in this process too).
			release := make(chan struct{})
			restore := faultinject.Set(faultinject.MassageChunk, func() { <-release })
			id := w.submit("held query", valid)
			resp, body := w.get("/jobs/" + id + "/result")
			w.wantError("result before finish", resp, body, http.StatusConflict, "not_finished")
			close(release)
			restore()
			if st := w.settled("held query", id); st["state"] != string(server.JobDone) {
				t.Errorf("held query: %v, want done", st)
			}
			// The finished result is the frame under every Accept — none,
			// curl's wildcard, JSON, other types, the frame by name, a
			// q-weighted mix — with its exact length up front; it decodes
			// to what the job holds.
			resultPath := "/jobs/" + id + "/result"
			held, err := d.result(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, accept := range []string{"", "*/*", "application/json", "text/html, application/vnd.mcs.other",
				server.ResultFrameType, "application/json;q=0.5, " + strings.ToUpper(server.ResultFrameType) + ";q=1"} {
				resp, frame := w.fetch(resultPath, accept)
				if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != server.ResultFrameType {
					t.Errorf("Accept %q: status %d Content-Type %q, want 200 %s", accept, resp.StatusCode, ct, server.ResultFrameType)
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(frame)) || len(resp.TransferEncoding) != 0 {
					t.Errorf("Accept %q: Content-Length %q, Transfer-Encoding %v for a %d-byte frame", accept, cl, resp.TransferEncoding, len(frame))
				}
				got, err := server.ReadResultFrame(bytes.NewReader(frame), server.MaxResultBytes)
				if err != nil {
					t.Errorf("Accept %q: %v", accept, err)
					continue
				}
				if got.JobID != id || !bytes.Equal(canonServer(t, got), canonServer(t, held)) {
					t.Errorf("Accept %q: frame decodes to job %q with different data than the job holds", accept, got.JobID)
				}
			}
			// Errors and status stay JSON under a frame Accept.
			for path, wantStatus := range map[string]int{"/jobs/zz/result": http.StatusNotFound, "/jobs/" + id: http.StatusOK, "/tables": http.StatusOK} {
				resp, body := w.fetch(path, server.ResultFrameType)
				if ct := resp.Header.Get("Content-Type"); resp.StatusCode != wantStatus || ct != "application/json" || !json.Valid(body) {
					t.Errorf("%s under a frame Accept: status %d Content-Type %q body %q, want %d JSON", path, resp.StatusCode, ct, body, wantStatus)
				}
			}

			// Prefer: wait (RFC 7240). A query that settles within the wait
			// is answered on the submit itself: 200, the frame with the
			// data of the async fetch above, Preference-Applied: wait. The
			// daemon keeps nothing of it, so its id answers 404.
			resp, frame := w.query(valid, "wait=5")
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != server.ResultFrameType ||
				resp.Header.Get("Preference-Applied") != "wait" || resp.Header.Get("Content-Length") != strconv.Itoa(len(frame)) {
				t.Fatalf("waited query: status %d Content-Type %q Preference-Applied %q Content-Length %q for %d bytes",
					resp.StatusCode, ct, resp.Header.Get("Preference-Applied"), resp.Header.Get("Content-Length"), len(frame))
			}
			got, err := server.ReadResultFrame(bytes.NewReader(frame), server.MaxResultBytes)
			if err != nil {
				t.Fatal(err)
			}
			if got.JobID == "" || got.JobID == id || !bytes.Equal(canonServer(t, got), canonServer(t, held)) {
				t.Errorf("waited query: job %q, data equal to the async fetch's: %v", got.JobID, bytes.Equal(canonServer(t, got), canonServer(t, held)))
			}
			for _, path := range []string{"/jobs/" + got.JobID, "/jobs/" + got.JobID + "/result"} {
				resp, body := w.get(path)
				w.wantError("delivered job "+path, resp, body, http.StatusNotFound, "not_found")
			}
			// A query that fails within the wait answers with what the
			// result fetch of the same failed job answers.
			const unknownTable = `{"table":"nope","kind":"orderby","sort_cols":[{"name":"a"}]}`
			failedID := w.submit("failing query", unknownTable)
			w.settled("failing query", failedID)
			wantResp, wantBody := w.get("/jobs/" + failedID + "/result")
			resp, raw := w.query(unknownTable, "wait=5")
			var failure map[string]any
			if err := json.Unmarshal(raw, &failure); err != nil {
				t.Fatalf("waited failure: body %q: %v", raw, err)
			}
			if resp.StatusCode != wantResp.StatusCode || failure["kind"] != wantBody["kind"] || failure["retryable"] != wantBody["retryable"] ||
				resp.Header.Get("Preference-Applied") != "wait" {
				t.Errorf("waited failure: %d %v (Preference-Applied %q), want the result fetch's %d %v",
					resp.StatusCode, failure, resp.Header.Get("Preference-Applied"), wantResp.StatusCode, wantBody)
			}
			// A query still running when the wait ends answers 202, and its
			// result is fetched as an async submit's.
			release = make(chan struct{})
			restore = faultinject.Set(faultinject.MassageChunk, func() { <-release })
			resp, raw = w.query(valid, "wait=1")
			close(release)
			restore()
			id = w.accepted("query outliving its wait", resp, raw)
			if st := w.settled("query outliving its wait", id); st["state"] != string(server.JobDone) {
				t.Errorf("query outliving its wait: %v, want done", st)
			}
			if resp, frame := w.fetch("/jobs/"+id+"/result", ""); resp.StatusCode != http.StatusOK {
				t.Errorf("query outliving its wait: result %d %q", resp.StatusCode, frame)
			}
			// What the daemon does not understand it ignores (RFC 7240):
			// today's 202.
			for _, prefer := range []string{"", "wait=0", "wait=soon", "wait=-3", "respond-async", "return=minimal"} {
				resp, raw := w.query(valid, prefer)
				id := w.accepted("Prefer "+prefer, resp, raw)
				w.settled("Prefer "+prefer, id)
			}

			// Drain: health and readiness flip to 503, liveness stays up,
			// submissions are refused with 503 + Retry-After.
			if err := d.shutdown(context.Background()); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			for path, code := range map[string]int{"/healthz": 503, "/readyz": 503, "/livez": 200} {
				if resp, body := w.get(path); resp.StatusCode != code || (code == 503 && body["status"] != "draining") {
					t.Errorf("%s after drain = %d %v, want %d", path, resp.StatusCode, body, code)
				}
			}
			resp, body = w.post(valid)
			w.wantError("submit after drain", resp, body, http.StatusServiceUnavailable, "shutdown")
		})
	}
}

// TestCoordinatorHTTPErrors covers the rows of the wire contract only a
// coordinator has: the reserved col_order and oids_only fields, the
// "shards" field on /healthz, and the shard taxonomy's statuses.
func TestCoordinatorHTTPErrors(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 2, Config{})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()
	w := wire{t, hs.URL}

	if _, body := w.get("/healthz"); body["shards"] != "2" {
		t.Errorf("/healthz body %v, want shards=2", body)
	}

	// Even a col_order Validate allows (the identity) is reserved for
	// the coordinator's own sub-queries.
	w.wantFailed("reserved col_order",
		`{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"},{"name":"b"}],"col_order":[0,1]}`,
		"invalid", http.StatusBadRequest)
	// So is oids_only: the coordinator's answer always carries ranks.
	w.wantFailed("reserved oids_only",
		`{"table":"narrow0","kind":"partitionby","sort_cols":[{"name":"a"}],"window":{"order_col":"c"},"oids_only":true}`,
		"invalid", http.StatusBadRequest)

	for _, tc := range []struct {
		name      string
		err       error
		kind      string
		retryable bool
		status    int
	}{
		{"malformed shard response", fmt.Errorf("%w: missing shard result", errShardInvalid), "shard_invalid", false, http.StatusBadGateway},
		{"transport fault", &shardError{addr: "http://s1", err: errors.New("connection refused")}, "shard_unavailable", true, http.StatusServiceUnavailable},
		{"open breaker", &shardError{addr: "http://s1", err: client.ErrBreakerOpen}, "shard_unavailable", true, http.StatusServiceUnavailable},
		{"untyped shard failure", &shardError{addr: "http://s1", err: &client.Error{Kind: "internal", Status: 500, Retryable: true}}, "shard_unavailable", true, http.StatusServiceUnavailable},
		{"shard budget refusal propagates", &shardError{addr: "http://s1", err: &client.Error{Kind: "budget", Status: 503, Retryable: true}}, "budget", true, http.StatusServiceUnavailable},
		{"caller cancellation through a shard", &shardError{addr: "http://s1", err: context.Canceled}, "execution_timeout", false, http.StatusGatewayTimeout},
		// A propagated kind keeps the status the taxonomy gives it, also
		// the kinds a client.Error maps to no sentinel.
		{"shard deadline propagates", &shardError{addr: "http://s1", err: &client.Error{Kind: "execution_timeout", Status: 504}}, "execution_timeout", false, http.StatusGatewayTimeout},
		{"draining shard propagates", &shardError{addr: "http://s1", err: &client.Error{Kind: "shutdown", Status: 503}}, "shutdown", false, http.StatusServiceUnavailable},
		{"shard-rejected request propagates", &shardError{addr: "http://s1", err: &client.Error{Kind: "invalid", Status: 400}}, "invalid", false, http.StatusBadRequest},
	} {
		kind, retryable, status := classify(tc.err)
		if kind != tc.kind || retryable != tc.retryable || status != tc.status {
			t.Errorf("%s: classify = %s/%v/%d, want %s/%v/%d", tc.name, kind, retryable, status, tc.kind, tc.retryable, tc.status)
		}
	}
}

// TestCoordinatorShardFrameCorrupt: a shard whose result frame arrives
// whole with one header bit flipped fails the coordinator's job as
// shard_invalid — 502, not retryable — after executing the fan-out
// once: the checksum catches what the merge's validation cannot, and a
// frame that violates the format is no transport failure to retry.
func TestCoordinatorShardFrameCorrupt(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	healthy, done := newTopology(t, tables, 2, Config{})
	defer done()

	// The double: shard 1 behind a proxy that flips one bit of every
	// result frame's exec_ns, a header field the gather never looks at,
	// so only the checksum can tell the frame is damaged.
	backend, err := url.Parse(healthy.cfg.Shards[1])
	if err != nil {
		t.Fatal(err)
	}
	var submits atomic.Int64
	proxy := httputil.NewSingleHostReverseProxy(backend)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.Method == http.MethodPost {
			submits.Add(1)
		}
		if resp.Header.Get("Content-Type") != server.ResultFrameType {
			return nil
		}
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		frame[12+24] ^= 1 // past the prefix: exec_ns follows rows, workers and queue_wait_ns
		resp.Body = io.NopCloser(bytes.NewReader(frame))
		return nil
	}
	double := httptest.NewServer(proxy)
	defer double.Close()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	cfg := healthy.cfg
	cfg.Shards = []string{healthy.cfg.Shards[0], double.URL}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := coord.Shutdown(context.Background()); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	}()
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	w := wire{t, hs.URL}

	fanout := counterValue(t, "shard.fanout_subqueries")
	w.wantFailed("bit-flipped shard frame",
		`{"table":"narrow0","kind":"partitionby","sort_cols":[{"name":"a"}],"window":{"order_col":"c"}}`,
		"shard_invalid", http.StatusBadGateway)
	if got := counterValue(t, "shard.fanout_subqueries") - fanout; got != 2 {
		t.Errorf("fan-out ran %d sub-queries, want 2: one per shard, executed once", got)
	}
	if got := submits.Load(); got != 1 {
		t.Errorf("the corrupt shard was asked %d times, want 1: a bad frame must not be retried", got)
	}
}

// TestDeliveredResultsNotRetained: a client query is one waited submit
// on the coordinator and one on each shard, so once it returns no
// daemon holds its result: every job id the queries minted — ids are
// sequential — answers 404 on the coordinator and on every shard.
// Async submits without the preference are retained as before.
func TestDeliveredResultsNotRetained(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 3, Config{})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()
	cl, err := client.New(client.Config{BaseURL: hs.URL, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	req := server.QueryRequest{Table: "narrow0", Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "a"}}, Window: &server.WindowReq{OrderCol: "c"}}
	for i := 0; i < n; i++ {
		if _, err := cl.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	daemons := append([]string{hs.URL}, coord.cfg.Shards...)
	for _, url := range daemons {
		w := wire{t, url}
		for i := 1; i <= n; i++ {
			resp, body := w.get(fmt.Sprintf("/jobs/j%d", i))
			w.wantError(fmt.Sprintf("%s delivered j%d", url, i), resp, body, http.StatusNotFound, "not_found")
		}
	}

	w := wire{t, hs.URL}
	for i := n + 1; i <= 2*n; i++ {
		id, err := coord.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("j%d", i); id != want {
			t.Fatalf("job id %q, want %q", id, want)
		}
		if _, err := coord.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	for i := n + 1; i <= 2*n; i++ {
		if resp, _ := w.fetch(fmt.Sprintf("/jobs/j%d/result", i), ""); resp.StatusCode != http.StatusOK {
			t.Errorf("async j%d: result %d, want it retained", i, resp.StatusCode)
		}
	}
}

// TestCoordinatorJobTableBounded: the coordinator serves through the
// same bounded job table as a single mcsd — beyond the retention bound
// the oldest finished ids answer 404 not_found and the newest stay
// fetchable (server's TestJobTableBounded pins the table size itself).
func TestCoordinatorJobTableBounded(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 2, Config{})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()
	w := wire{t, hs.URL}

	// server.maxFinishedJobs, which is unexported.
	const retained, extra = 256, 8
	req := server.QueryRequest{Table: "narrow0", Kind: "orderby", Limit: intp(1),
		SortCols: []server.SortColReq{{Name: "a"}}}
	for i := 1; i <= retained+extra; i++ {
		id, err := coord.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Wait(context.Background(), id); err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
	}
	for i := 1; i <= extra; i++ {
		resp, body := w.get(fmt.Sprintf("/jobs/j%d", i))
		w.wantError(fmt.Sprintf("evicted j%d", i), resp, body, http.StatusNotFound, "not_found")
	}
	for _, i := range []int{extra + 1, retained + extra} {
		resp, frame := w.fetch(fmt.Sprintf("/jobs/j%d/result", i), "")
		if _, err := server.ReadResultFrame(bytes.NewReader(frame), server.MaxResultBytes); resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("retained j%d: %d %v", i, resp.StatusCode, err)
		}
	}

	// Large results: the table is also bounded by what it retains. Every
	// row of the table below is its own group under a 15-column ORDER BY,
	// so a result holds 15·8 + 8 bytes a row — 4 MiB, a sixteenth of
	// server.MaxResultBytes: sixteen are retained and each further one
	// evicts the oldest, long before the count bound.
	t.Run("by weight", func(t *testing.T) {
		const rows = server.MaxResultBytes / 16 / 128
		tbl := table.New("heavy", rows)
		req := server.QueryRequest{Table: "heavy", Kind: "orderby"}
		for c := 0; c < 15; c++ {
			name, width, codes := fmt.Sprintf("c%d", c), 2, make([]uint64, rows)
			for i := range codes {
				codes[i] = uint64(i>>c) & 3
			}
			if c == 0 {
				width = 15
				for i := range codes {
					codes[i] = uint64(i*40503) % rows // odd multiplier: a permutation
				}
			}
			if err := tbl.Add(column.FromCodes(name, width, codes)); err != nil {
				t.Fatal(err)
			}
			req.SortCols = append(req.SortCols, server.SortColReq{Name: name})
		}
		coord, done := newTopology(t, []*table.Table{tbl}, 2, Config{})
		hs := httptest.NewServer(coord.Handler())
		defer done()
		defer hs.Close()
		w := wire{t, hs.URL}

		const fit, extra = 16, 3
		for i := 1; i <= fit+extra; i++ {
			id, err := coord.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := coord.Wait(context.Background(), id); err != nil || len(res.GroupKeys) != rows {
				t.Fatalf("job %s: %d groups, err %v", id, len(res.GroupKeys), err)
			}
		}
		for i := 1; i <= extra; i++ {
			resp, body := w.get(fmt.Sprintf("/jobs/j%d", i))
			w.wantError(fmt.Sprintf("evicted j%d", i), resp, body, http.StatusNotFound, "not_found")
		}
		for _, i := range []int{extra + 1, fit + extra} {
			if resp, _ := w.fetch(fmt.Sprintf("/jobs/j%d/result", i), server.ResultFrameType); resp.StatusCode != http.StatusOK {
				t.Errorf("retained j%d: %d", i, resp.StatusCode)
			}
		}
	})
}

// deadEndpoint is an http.RoundTripper that refuses every request to
// one host while it is set — a dead shard the test can revive.
type deadEndpoint struct{ host atomic.Value }

func (d *deadEndpoint) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host == d.host.Load() {
		return nil, errors.New("connection refused (injected)")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestCoordinatorReadyzTracksShardBreakers: every query needs every
// shard, so while one shard's client breaker is open the coordinator
// must tell the load balancer it is not ready — and say ready again
// once the half-open probe has succeeded. /livez stays 200 throughout.
// (Before the coordinator served through the shared Front its /readyz
// was wired to the health handler and reported ready regardless.)
func TestCoordinatorReadyzTracksShardBreakers(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	dead := &deadEndpoint{}
	dead.host.Store("")
	coord, done := newTopology(t, tables, 2, Config{Client: client.Config{
		HTTPClient:       &http.Client{Transport: dead},
		MaxRetries:       1,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  300 * time.Millisecond,
	}})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()
	w := wire{t, hs.URL}
	wantReady := func(label string) {
		t.Helper()
		if resp, body := w.get("/readyz"); resp.StatusCode != http.StatusOK || body["status"] != "ready" {
			t.Errorf("%s: /readyz = %d %v, want 200 ready", label, resp.StatusCode, body)
		}
	}
	wantDegraded := func(label string) {
		t.Helper()
		resp, body := w.get("/readyz")
		// Exactly the dead shard: the failed fan-out cancels its healthy
		// peer's in-flight call, and a caller's cancel is no failure.
		open, _ := body["open_shards"].([]any)
		listed := len(open) == 1 && open[0] == coord.cfg.Shards[1]
		if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "degraded" || body["reason"] == "" || !listed {
			t.Errorf("%s: /readyz = %d %v, want 503 degraded with open_shards = [%s]", label, resp.StatusCode, body, coord.cfg.Shards[1])
		}
		if resp, _ := w.get("/livez"); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /livez = %d, want 200", label, resp.StatusCode)
		}
	}
	// halfOpen waits out the breaker cooldown: the coordinator reports
	// ready again so that traffic — the probe — can reach it.
	halfOpen := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if resp, _ := w.get("/readyz"); resp.StatusCode == http.StatusOK {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("breaker never went half-open")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	req := server.QueryRequest{Table: "narrow0", Kind: "orderby", SortCols: []server.SortColReq{{Name: "a"}}}
	ctx := context.Background()
	if _, err := coord.Run(ctx, req); err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	wantReady("healthy")

	dead.host.Store(strings.TrimPrefix(coord.cfg.Shards[1], "http://"))
	if _, err := coord.Run(ctx, req); err == nil {
		t.Fatal("query over a dead shard succeeded")
	} else if kind, _, _ := classify(err); kind != "shard_unavailable" {
		t.Errorf("dead shard: kind %q, want shard_unavailable (%v)", kind, err)
	}
	wantDegraded("breaker tripped")

	// The shard is still dead when the probe goes out: the breaker
	// re-opens for another cooldown.
	halfOpen()
	if _, err := coord.Run(ctx, req); err == nil {
		t.Fatal("probe over a dead shard succeeded")
	}
	wantDegraded("probe failed")

	// Revived: the next probe succeeds and closes the breaker for good.
	dead.host.Store("")
	halfOpen()
	if _, err := coord.Run(ctx, req); err != nil {
		t.Fatalf("probe over the revived shard: %v", err)
	}
	wantReady("recovered")
	time.Sleep(10 * time.Millisecond)
	wantReady("still recovered")
}

// TestCoordinatorWatchdogParity: the coordinator's watchdog is the
// single-node one — a fan-out wedged past its budget dies with the
// typed, retryable watchdog kind (504), and the kill is counted on the
// same server.watchdog_kills counter an operator already watches.
func TestCoordinatorWatchdogParity(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	defer faultinject.Set(faultinject.ShardFanout, func() {
		time.Sleep(400 * time.Millisecond)
	})()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 2, Config{WatchdogMult: 1, WatchdogFloor: 30 * time.Millisecond})
	defer done()

	kills := counterValue(t, "server.watchdog_kills")
	req := server.QueryRequest{Table: "narrow0", Kind: "orderby", SortCols: []server.SortColReq{{Name: "a"}}}
	_, err := coord.Run(context.Background(), req)
	if err == nil {
		t.Fatal("wedged fan-out succeeded; watchdog never fired")
	}
	kind, retryable, status := classify(err)
	if kind != "watchdog" || !retryable || status != http.StatusGatewayTimeout {
		t.Errorf("classify = %s/%v/%d, want watchdog/true/504 (err: %v)", kind, retryable, status, err)
	}
	if got := counterValue(t, "server.watchdog_kills"); got != kills+1 {
		t.Errorf("server.watchdog_kills went %d -> %d, want +1", kills, got)
	}
}
