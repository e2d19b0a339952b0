// Wire surface of mcsd — single node and coordinator alike, served by
// the Front: HTTP on the stdlib mux, JSON except for a result.
//
//	POST /query            submit a query; returns 202 {"job_id": "..."}.
//	                       With Prefer: wait=N it waits up to N seconds
//	                       and, if the job settles, answers with its
//	                       outcome instead: 200 and the result frame,
//	                       or the job's error body (Preference-Applied:
//	                       wait); that job is never retained
//	GET  /jobs/{id}        a job's status; Prefer: wait=N long-polls
//	                       until it settles or N seconds pass
//	GET  /jobs/{id}/result fetch a finished job's result as the binary
//	                       result frame (frame.go), whatever Accept says
//	GET  /tables           list registered tables
//	GET  /metrics          obs snapshot as JSON (plan cache, admission,
//	                       pipeline counters)
//	GET  /healthz          health probe (503 while draining)
//	GET  /livez            pure liveness
//	GET  /readyz           readiness (503 while draining or degraded)
//
// The request decoder is strict — unknown fields, absurd column lists,
// and negative workers/budgets are rejected with a 400 before any
// engine code runs — and fuzzed (FuzzQueryRequest) so no byte sequence
// can panic the serving path.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/byteslice"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/planner"
)

// ErrInvalidRequest is the class every request-validation failure
// wraps (HTTP 400, kind "invalid", not retryable). The coordinator
// classifies its own validation failures with it too.
var ErrInvalidRequest = errors.New("server: invalid request")

// Validation bounds. Requests beyond them are rejected up front: the
// engine would grind through them, but no legitimate query sorts more
// than a handful of columns, and the serving layer must not let one
// absurd request allocate unboundedly.
const (
	// MaxSortCols bounds the sort clause (the paper's widest evaluated
	// clause is m = 7; 16 leaves headroom).
	MaxSortCols = 16
	// MaxFilters bounds the conjunctive filter list.
	MaxFilters = 64
	// MaxNameLen bounds any column or table name.
	MaxNameLen = 256
	// MaxWorkers bounds the per-query worker request.
	MaxWorkers = 1024
	// MaxLimit bounds limit and offset: far beyond any real result size,
	// small enough that offset+limit can never overflow an int.
	MaxLimit = 1 << 31
)

// SortColReq names one sort column on the wire.
type SortColReq struct {
	Name string `json:"name"`
	Desc bool   `json:"desc,omitempty"`
}

// FilterReq is one conjunctive predicate on the wire. Op is one of
// eq, neq, lt, le, gt, ge — or empty with Between set.
type FilterReq struct {
	Col     string `json:"col"`
	Op      string `json:"op,omitempty"`
	Const   uint64 `json:"const,omitempty"`
	Between bool   `json:"between,omitempty"`
	Lo      uint64 `json:"lo,omitempty"`
	Hi      uint64 `json:"hi,omitempty"`
}

// AggReq selects the grouped aggregate: count, sum, or avg.
type AggReq struct {
	Kind string `json:"kind"`
	Col  string `json:"col,omitempty"`
}

// WindowReq describes RANK() OVER (PARTITION BY sort_cols ORDER BY
// order_col).
type WindowReq struct {
	OrderCol string `json:"order_col"`
	Desc     bool   `json:"desc,omitempty"`
}

// QueryRequest is the wire form of one query.
type QueryRequest struct {
	Table      string       `json:"table"`
	ID         string       `json:"id,omitempty"`
	Kind       string       `json:"kind"` // orderby | groupby | partitionby
	SortCols   []SortColReq `json:"sort_cols"`
	Filters    []FilterReq  `json:"filters,omitempty"`
	Agg        *AggReq      `json:"agg,omitempty"`
	Window     *WindowReq   `json:"window,omitempty"`
	OrderByAgg bool         `json:"order_by_agg,omitempty"`
	// Workers requests a per-query worker count (0 = server default).
	Workers int `json:"workers,omitempty"`
	// MaxBytes caps this query's estimated transient footprint
	// (0 = the admission reservation / unlimited).
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// TimeoutMS bounds the query end to end, queue wait included
	// (0 = none). A deadline that expires while queued fails with the
	// typed queue_timeout kind, not a hang.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Limit caps the output entries — ranked rows for partitionby,
	// groups otherwise — via the engine's truncated sort path
	// (docs/topk.md). Absent = unlimited; 0 = empty result. The result
	// is byte-identical to the unlimited result sliced to
	// [offset, offset+limit).
	Limit *int `json:"limit,omitempty"`
	// Offset drops the first Offset output entries (default 0).
	Offset int `json:"offset,omitempty"`
	// ColOrder pins the plan search's column permutation
	// (engine.Options.FixedColOrder). The sharded coordinator sets it on
	// every shard sub-query so all shards sort — and therefore emit
	// group keys — in the column order the coordinator's full-table
	// search chose; per-shard statistics would otherwise let each shard
	// pick its own. Must be a permutation of the sort columns (window
	// order column last, counted as the final position); orderby accepts
	// only the identity. Absent = the server searches freely.
	ColOrder []int `json:"col_order,omitempty"`
	// OidsOnly makes a partitionby query answer with its rows' oids in
	// sorted order and no ranks (engine.Options.OidsOnly). The sharded
	// coordinator sets it on every window sub-query: it ranks the merged
	// rows from their sort keys itself. Refused on other kinds; the
	// coordinator refuses it from its own callers.
	OidsOnly bool `json:"oids_only,omitempty"`
}

// QueryResult is the wire form of a finished query. The data fields
// (Rows, GroupKeys, Aggregates, Ranks, RowOids) are exactly the
// engine's — the differential battery asserts byte identity of their
// encoding against a direct engine.RunContext call.
type QueryResult struct {
	JobID        string     `json:"job_id,omitempty"`
	Table        string     `json:"table"`
	Rows         int        `json:"rows"`
	GroupKeys    [][]uint64 `json:"group_keys,omitempty"`
	Aggregates   []uint64   `json:"aggregates,omitempty"`
	Ranks        []uint32   `json:"ranks,omitempty"`
	RowOids      []uint32   `json:"row_oids,omitempty"`
	Workers      int        `json:"workers,omitempty"`
	Plan         string     `json:"plan"`
	ColOrder     []int      `json:"col_order"`
	PlanCacheHit bool       `json:"plan_cache_hit"`
	QueueWaitNS  int64      `json:"queue_wait_ns"`
	ExecNS       int64      `json:"exec_ns"`
}

// ParseQueryRequest strictly decodes and validates one JSON request
// body. Unknown fields, trailing garbage, and out-of-range values are
// all ErrInvalidRequest failures.
func ParseQueryRequest(data []byte) (*QueryRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req QueryRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	// Reject trailing non-whitespace (a second JSON document).
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after request object", ErrInvalidRequest)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request's shape without touching any table.
func (r *QueryRequest) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
	}
	if r.Table == "" || len(r.Table) > MaxNameLen {
		return bad("table name must be 1..%d bytes", MaxNameLen)
	}
	if len(r.ID) > MaxNameLen {
		return bad("query id longer than %d bytes", MaxNameLen)
	}
	kind, err := r.clauseKind()
	if err != nil {
		return err
	}
	if len(r.SortCols) == 0 {
		return bad("sort_cols must not be empty")
	}
	if len(r.SortCols) > MaxSortCols {
		return bad("%d sort_cols, max %d", len(r.SortCols), MaxSortCols)
	}
	for i, sc := range r.SortCols {
		if sc.Name == "" || len(sc.Name) > MaxNameLen {
			return bad("sort_cols[%d].name must be 1..%d bytes", i, MaxNameLen)
		}
	}
	if len(r.Filters) > MaxFilters {
		return bad("%d filters, max %d", len(r.Filters), MaxFilters)
	}
	for i, f := range r.Filters {
		if f.Col == "" || len(f.Col) > MaxNameLen {
			return bad("filters[%d].col must be 1..%d bytes", i, MaxNameLen)
		}
		if f.Between {
			if f.Op != "" {
				return bad("filters[%d]: between and op are mutually exclusive", i)
			}
			if f.Lo > f.Hi {
				return bad("filters[%d]: between lo %d > hi %d", i, f.Lo, f.Hi)
			}
		} else if _, err := filterOp(f.Op); err != nil {
			return bad("filters[%d]: %v", i, err)
		}
	}
	if r.Agg != nil {
		switch r.Agg.Kind {
		case "count":
			// Col ignored.
		case "sum", "avg":
			if r.Agg.Col == "" || len(r.Agg.Col) > MaxNameLen {
				return bad("agg.col must be 1..%d bytes for %s", MaxNameLen, r.Agg.Kind)
			}
		default:
			return bad("agg.kind %q (want count, sum, or avg)", r.Agg.Kind)
		}
	}
	if r.Window != nil {
		if r.Window.OrderCol == "" || len(r.Window.OrderCol) > MaxNameLen {
			return bad("window.order_col must be 1..%d bytes", MaxNameLen)
		}
		if r.Kind != "partitionby" {
			return bad("window requires kind partitionby, got %q", r.Kind)
		}
		if r.Agg != nil {
			return bad("window and agg are mutually exclusive")
		}
		if r.OrderByAgg {
			return bad("window and order_by_agg are mutually exclusive")
		}
	}
	if r.Kind == "partitionby" && r.Window == nil {
		return bad("kind partitionby requires a window")
	}
	if r.OrderByAgg && r.Agg == nil {
		return bad("order_by_agg requires an agg")
	}
	if r.OidsOnly && r.Kind != "partitionby" {
		return bad("oids_only requires kind partitionby, got %q", r.Kind)
	}
	if r.Workers < 0 || r.Workers > MaxWorkers {
		return bad("workers %d out of range [0, %d]", r.Workers, MaxWorkers)
	}
	if r.MaxBytes < 0 {
		return bad("max_bytes %d must be >= 0", r.MaxBytes)
	}
	if r.TimeoutMS < 0 {
		return bad("timeout_ms %d must be >= 0", r.TimeoutMS)
	}
	if r.Limit != nil && (*r.Limit < 0 || *r.Limit > MaxLimit) {
		return bad("limit %d out of range [0, %d]", *r.Limit, MaxLimit)
	}
	if r.Offset < 0 || r.Offset > MaxLimit {
		return bad("offset %d out of range [0, %d]", r.Offset, MaxLimit)
	}
	if len(r.ColOrder) > 0 {
		m := len(r.SortCols)
		if r.Window != nil {
			m++ // the window order column is the final sort position
		}
		if err := engine.ValidateColOrder(r.ColOrder, m, kind, r.Window != nil); err != nil {
			return bad("%v", err)
		}
	}
	return nil
}

// clauseKind maps the wire kind to the planner's.
func (r *QueryRequest) clauseKind() (planner.ClauseKind, error) {
	switch r.Kind {
	case "orderby":
		return planner.OrderBy, nil
	case "groupby":
		return planner.GroupBy, nil
	case "partitionby":
		return planner.PartitionBy, nil
	default:
		return 0, fmt.Errorf("%w: kind %q (want orderby, groupby, or partitionby)", ErrInvalidRequest, r.Kind)
	}
}

// filterOp maps a wire op to the scan operator.
func filterOp(op string) (byteslice.Op, error) {
	switch op {
	case "eq":
		return byteslice.EQ, nil
	case "neq":
		return byteslice.NEQ, nil
	case "lt":
		return byteslice.LT, nil
	case "le":
		return byteslice.LE, nil
	case "gt":
		return byteslice.GT, nil
	case "ge":
		return byteslice.GE, nil
	default:
		return 0, fmt.Errorf("op %q (want eq, neq, lt, le, gt, or ge)", op)
	}
}

// ToEngineQuery converts a validated request into the engine's
// declarative form. It must only be called after Validate succeeded.
func (r *QueryRequest) ToEngineQuery() (engine.Query, error) {
	kind, err := r.clauseKind()
	if err != nil {
		return engine.Query{}, err
	}
	q := engine.Query{ID: r.ID, Kind: kind, OrderByAgg: r.OrderByAgg}
	for _, sc := range r.SortCols {
		q.SortCols = append(q.SortCols, engine.SortCol{Name: sc.Name, Desc: sc.Desc})
	}
	for _, f := range r.Filters {
		ef := engine.Filter{Col: f.Col, Between: f.Between, Lo: f.Lo, Hi: f.Hi, Const: f.Const}
		if !f.Between {
			op, err := filterOp(f.Op)
			if err != nil {
				return engine.Query{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
			}
			ef.Op = op
		}
		q.Filters = append(q.Filters, ef)
	}
	if r.Agg != nil {
		a := &engine.Agg{Col: r.Agg.Col}
		switch r.Agg.Kind {
		case "count":
			a.Kind = engine.Count
		case "sum":
			a.Kind = engine.Sum
		case "avg":
			a.Kind = engine.Avg
		}
		q.Agg = a
	}
	if r.Window != nil {
		q.Window = &engine.Window{OrderCol: r.Window.OrderCol, Desc: r.Window.Desc}
	}
	return q, nil
}

// Handler returns the front's HTTP mux: the one wire surface of both
// daemons (a client cannot tell a coordinator from a single mcsd).
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", f.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", f.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", f.handleResult)
	mux.HandleFunc("GET /tables", f.handleTables)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /livez", f.handleLivez)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	return mux
}

// maxRequestBytes bounds a request body read; a query description has
// no business being larger.
const maxRequestBytes = 1 << 20

func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, f.b.Classify, err)
		return
	}
	req, err := ParseQueryRequest(body)
	if err != nil {
		writeError(w, f.b.Classify, err)
		return
	}
	j, done, err := f.submitWait(r.Context(), *req, preferredWait(r.Header))
	switch {
	case err != nil:
		writeError(w, f.b.Classify, err)
	case !done:
		writeJSON(w, http.StatusAccepted, map[string]string{"job_id": j.id})
	default:
		// The outcome reads as GET /jobs/{id}/result would have read it.
		w.Header().Set("Preference-Applied", "wait")
		if j.err != nil {
			writeError(w, f.b.Classify, j.err)
			return
		}
		f.writeFrame(w, j.res)
	}
}

// handleStatus answers with the job's status; a Prefer: wait first
// waits for the job to settle.
func (f *Front) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wait := preferredWait(r.Header); wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		_, _ = f.Wait(ctx, id) // the status below says how it ended
		cancel()
	}
	st, err := f.Status(id)
	if err != nil {
		writeError(w, f.b.Classify, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// maxPreferWait caps the wait a request may ask for with RFC 7240's
// Prefer: wait=N. A client that wants to wait longer asks again: the
// status long-poll.
const maxPreferWait = 30 * time.Second

// preferredWait is the wait a request asks for with RFC 7240's
// Prefer: wait=N (whole seconds), capped at maxPreferWait; 0 when it
// asks for none. As the RFC says, what the server does not understand
// is ignored: other preferences, parameters, a malformed value; only
// the first wait counts.
func preferredWait(h http.Header) time.Duration {
	for _, v := range h.Values("Prefer") {
		for _, pref := range strings.Split(v, ",") {
			pref, _, _ = strings.Cut(pref, ";")
			name, val, _ := strings.Cut(pref, "=")
			if !strings.EqualFold(strings.TrimSpace(name), "wait") {
				continue
			}
			secs, err := strconv.ParseUint(strings.Trim(strings.TrimSpace(val), `"`), 10, 63)
			if err != nil {
				return 0
			}
			return time.Duration(min(secs, uint64(maxPreferWait/time.Second))) * time.Second
		}
	}
	return 0
}

// handleResult answers with the result frame (frame.go); errors are
// JSON. Like every route it has one representation and ignores Accept.
func (f *Front) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := f.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, f.b.Classify, err)
		return
	}
	f.writeFrame(w, res)
}

// writeFrame answers 200 with res as the result frame, its length up
// front.
func (f *Front) writeFrame(w http.ResponseWriter, res *QueryResult) {
	fr, err := newResultFrame(res)
	if err != nil {
		writeError(w, f.b.Classify, err)
		return
	}
	w.Header().Set("Content-Type", ResultFrameType)
	w.Header().Set("Content-Length", strconv.FormatInt(fr.size(), 10))
	w.WriteHeader(http.StatusOK)
	_ = fr.writeTo(w) // the peer hung up; nothing to report to
}

func (f *Front) handleTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tables": f.b.Registry.Names()})
}

func (f *Front) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteJSON(w); err != nil {
		// Headers are gone; nothing more to do than drop the conn.
		return
	}
}

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if f.isClosed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	body := map[string]string{"status": "ok"}
	for k, v := range f.b.Health {
		body[k] = v
	}
	writeJSON(w, http.StatusOK, body)
}

// handleLivez is pure liveness: the process is up and serving HTTP.
// It stays 200 through drains and degradation — restarts are for dead
// processes, and a draining server is finishing real work.
func (f *Front) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReadyz reports whether this daemon should receive new traffic:
// 503 while a drain is in progress or the Backend's readiness probe
// names a degradation (the single node's open panic breaker or
// saturated admission queue, the coordinator's open shard breakers),
// with the probe's detail fields in the body either way.
func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body, degraded := f.b.Ready()
	if body == nil {
		body = make(map[string]any)
	}
	switch {
	case f.isClosed():
		body["status"] = "draining"
	case degraded != "":
		body["status"] = "degraded"
		body["reason"] = degraded
	default:
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// readBody reads at most maxRequestBytes of the request body.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxRequestBytes)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return buf.Bytes(), nil
}

// ErrorClass is one row of the wire error taxonomy: the
// machine-readable kind (JobStatus.Kind), the HTTP status, whether a
// retry of the identical request may succeed, and the in-process
// sentinel a client.Error of this kind unwraps to, if it has one.
type ErrorClass struct {
	Kind      string
	Status    int
	Retryable bool
	Sentinel  error
	match     func(error) bool
}

// is matches errors wrapping the sentinel.
func is(sentinel error) func(error) bool {
	return func(err error) bool { return errors.Is(err, sentinel) }
}

// taxonomy is the one table behind every classification: the first row
// whose matcher accepts an error classifies it (a queue timeout wraps a
// context error, so it precedes execution_timeout). The retryable
// classes each get a distinct, conventional status — 429 for queue
// congestion, 503 (with Retry-After) for a budget refusal, 504 for a
// watchdog kill — so a client needs no message parsing to pick its
// backoff policy; permanent classes keep their 4xx codes. "internal" is
// the residual class: a query must never need it for a failure the
// taxonomy has a type for — the chaos battery asserts no storm-induced
// failure lands there. docs/serving.md renders this table.
var taxonomy = []ErrorClass{
	{"queue_timeout", http.StatusTooManyRequests, true, pipeerr.ErrQueueTimeout, is(pipeerr.ErrQueueTimeout)},
	{"budget", http.StatusServiceUnavailable, true, pipeerr.ErrBudgetExceeded, is(pipeerr.ErrBudgetExceeded)},
	{"watchdog", http.StatusGatewayTimeout, true, pipeerr.ErrWatchdog, is(pipeerr.ErrWatchdog)},
	{"shutdown", http.StatusServiceUnavailable, false, nil, is(ErrShuttingDown)},
	{"execution_timeout", http.StatusGatewayTimeout, false, nil, pipeerr.IsCtxErr},
	{"invalid", http.StatusBadRequest, false, nil, func(err error) bool {
		return errors.Is(err, ErrInvalidRequest) || errors.Is(err, engine.ErrUnknownColumn) ||
			errors.Is(err, byteslice.ErrConstantDomain)
	}},
	{"not_found", http.StatusNotFound, false, nil, is(errNoJob)},
	{"not_finished", http.StatusConflict, false, nil, is(errNotFinished)},
	{"pipeline", http.StatusInternalServerError, true, nil, func(err error) bool {
		var pe *pipeerr.PipelineError
		return errors.As(err, &pe)
	}},
	{"internal", http.StatusInternalServerError, false, nil, nil},
}

// ClassOfKind returns the taxonomy row of a wire kind — what a peer's
// failure of that kind means here: client.Error unwraps to its
// sentinel, and the coordinator answers a propagated shard kind with its
// status. ok is false for a kind the table does not know.
func ClassOfKind(kind string) (c ErrorClass, ok bool) {
	for _, row := range taxonomy {
		if row.Kind == kind {
			return row, true
		}
	}
	return ErrorClass{}, false
}

// Classify is the single-node Backend classifier: the wire kind, the
// retryability verdict and the HTTP status of the taxonomy row that
// matches err. The coordinator's classifier layers its shard kinds over
// it.
func Classify(err error) (kind string, retryable bool, status int) {
	residual := len(taxonomy) - 1
	c := taxonomy[residual]
	for _, row := range taxonomy[:residual] {
		if row.match(err) {
			c = row
			break
		}
	}
	return c.Kind, c.Retryable, c.Status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the peer hung up; nothing to report to
}

// writeError emits the error body with its machine-readable class and
// retryability as classify sees them, plus a Retry-After hint on the
// load-induced statuses (the admission queue and the byte budget clear
// on the next release, so "soon" is honest).
func writeError(w http.ResponseWriter, classify func(error) (string, bool, int), err error) {
	kind, retryable, status := classify(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"error":     err.Error(),
		"kind":      kind,
		"retryable": retryable,
	})
}
