package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

func TestParseQueryRequestRejects(t *testing.T) {
	longName := strings.Repeat("x", MaxNameLen+1)
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"not json", `not json`},
		{"null", `null`},
		{"array", `[]`},
		{"no table", `{"kind":"orderby","sort_cols":[{"name":"a"}]}`},
		{"long table", `{"table":"` + longName + `","kind":"orderby","sort_cols":[{"name":"a"}]}`},
		{"bad kind", `{"table":"t","kind":"sortby","sort_cols":[{"name":"a"}]}`},
		{"no sort cols", `{"table":"t","kind":"orderby","sort_cols":[]}`},
		{"unnamed sort col", `{"table":"t","kind":"orderby","sort_cols":[{"desc":true}]}`},
		{"unknown field", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"bogus":1}`},
		{"trailing garbage", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}]}{"x":1}`},
		{"bad filter op", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"c","op":"like","const":1}]}`},
		{"op and between", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"c","op":"eq","between":true}]}`},
		{"between lo>hi", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"c","between":true,"lo":9,"hi":3}]}`},
		{"bad agg kind", `{"table":"t","kind":"groupby","sort_cols":[{"name":"a"}],"agg":{"kind":"median","col":"c"}}`},
		{"sum without col", `{"table":"t","kind":"groupby","sort_cols":[{"name":"a"}],"agg":{"kind":"sum"}}`},
		{"window without partitionby", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"window":{"order_col":"c"}}`},
		{"partitionby without window", `{"table":"t","kind":"partitionby","sort_cols":[{"name":"a"}]}`},
		{"window with agg", `{"table":"t","kind":"partitionby","sort_cols":[{"name":"a"}],"window":{"order_col":"c"},"agg":{"kind":"count"}}`},
		{"order_by_agg without agg", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"order_by_agg":true}`},
		{"negative workers", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"workers":-1}`},
		{"huge workers", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"workers":99999}`},
		{"negative max_bytes", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"max_bytes":-1}`},
		{"negative timeout", `{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"timeout_ms":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := ParseQueryRequest([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			if !errors.Is(err, ErrInvalidRequest) {
				t.Errorf("error %v is not ErrInvalidRequest", err)
			}
			if req != nil {
				t.Error("rejected parse returned a request")
			}
		})
	}

	// Too many sort cols / filters.
	var cols []string
	for i := 0; i <= MaxSortCols; i++ {
		cols = append(cols, fmt.Sprintf(`{"name":"c%d"}`, i))
	}
	body := `{"table":"t","kind":"orderby","sort_cols":[` + strings.Join(cols, ",") + `]}`
	if _, err := ParseQueryRequest([]byte(body)); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("sort_cols over MaxSortCols: %v", err)
	}
}

func TestParseQueryRequestAccepts(t *testing.T) {
	body := `{"table":"tpch_wide","kind":"groupby",
	  "sort_cols":[{"name":"p_brand"},{"name":"p_size","desc":true}],
	  "filters":[{"col":"p_size","op":"neq","const":15}],
	  "agg":{"kind":"count"},"order_by_agg":true,"workers":4}`
	req, err := ParseQueryRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	q, err := req.ToEngineQuery()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.SortCols) != 2 || !q.SortCols[1].Desc || q.Agg == nil || !q.OrderByAgg {
		t.Errorf("engine query mangled: %+v", q)
	}
}

// TestQueryIDsDoNotGrowMetrics: a query's id is client-chosen, so
// nothing may register a metric per id — counters are never freed, and
// mcsd always runs with obs enabled. Distinct ids must leave the
// registry exactly as one warm-up query left it.
func TestQueryIDsDoNotGrowMetrics(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	obs.Enable()
	defer obs.Disable()

	tbl := testTPCH(t, 1000)
	srv := newTestServer(t, Config{}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	req := reqFromQuery(t, tbl.Name, workloads.TPCHQueries(tbl, "")[0].Query, 1)
	runAs := func(id string) {
		t.Helper()
		req.ID = id
		if _, err := srv.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	runAs("warm-up")
	before := len(obs.Snapshot().Counters)
	for i := 0; i < 40; i++ {
		runAs(fmt.Sprintf("client-chosen-%d", i))
	}
	if after := len(obs.Snapshot().Counters); after != before {
		t.Errorf("40 distinct query ids grew the counter registry from %d to %d", before, after)
	}
}

// TestServerMetricsSmoke is the in-process twin of scripts/smoke_mcsd.sh:
// two identical queries, the second a plan-cache hit, visible on
// /metrics.
func TestServerMetricsSmoke(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	obs.Enable()
	defer obs.Disable()

	tbl := testTPCH(t, 1000)
	srv := newTestServer(t, Config{MaxConcurrent: 2}, tbl)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	req := reqFromQuery(t, tbl.Name, workloads.TPCHQueries(tbl, "")[0].Query, 2)
	first, err := doQuery(hs.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCacheHit {
		t.Error("first query reported a plan-cache hit")
	}
	second, err := doQuery(hs.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCacheHit {
		t.Error("second identical query missed the plan cache")
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var report obs.Report
	if err := decodeBody(resp, &report); err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]int64, len(report.Counters))
	for _, c := range report.Counters {
		counters[c.Name] = c.Value
	}
	if counters["server.plancache_hits"] < 1 {
		t.Errorf("/metrics server.plancache_hits = %d, want >= 1", counters["server.plancache_hits"])
	}
	if counters["server.plancache_misses"] < 1 {
		t.Errorf("/metrics server.plancache_misses = %d, want >= 1", counters["server.plancache_misses"])
	}
	if counters["server.admitted"] < 2 {
		t.Errorf("/metrics server.admitted = %d, want >= 2", counters["server.admitted"])
	}
}

func TestErrorKind(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{pipeerr.QueueTimeout(context.DeadlineExceeded), "queue_timeout"},
		{fmt.Errorf("server: %w", pipeerr.ErrBudgetExceeded), "budget"},
		{ErrShuttingDown, "shutdown"},
		{fmt.Errorf("wrap: %w", context.Canceled), "execution_timeout"},
		{fmt.Errorf("%w: nope", ErrInvalidRequest), "invalid"},
		{errors.New("boom"), "internal"},
	}
	for _, tc := range cases {
		if got, _, _ := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) kind = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	tbl := testTPCH(t, 500)
	reg := NewRegistry()
	if err := reg.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(tbl); err == nil {
		t.Error("duplicate Register accepted")
	}
	if _, err := reg.Lookup(tbl.Name); err != nil {
		t.Errorf("Lookup(%s): %v", tbl.Name, err)
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != tbl.Name {
		t.Errorf("Names = %v", names)
	}
}

// The JSON error body is well-formed for every rejection path.
func TestErrorBodyShape(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 500)
	srv := newTestServer(t, Config{}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader([]byte(`{`)))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := decodeBody(resp, &body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" {
		t.Error("400 response carries no error message")
	}
	if !json.Valid([]byte(`"` + body.Error + `"`)) {
		t.Errorf("error message not JSON-safe: %q", body.Error)
	}
}
