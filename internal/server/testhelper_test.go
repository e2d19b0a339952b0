package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/byteslice"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/table"
)

func testTPCH(t *testing.T, rows int) *table.Table {
	t.Helper()
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func testTPCDS(t *testing.T, rows int) *table.Table {
	t.Helper()
	tbl, err := datagen.TPCDS(datagen.TPCDSConfig{SF: 1, Rows: rows, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newTestServer builds a server over the given tables with the
// deterministic builtin model and its own clock-free plan search (the
// serving configuration: cached and uncached plans must be identical).
func newTestServer(t *testing.T, cfg Config, tables ...*table.Table) *Server {
	t.Helper()
	reg := NewRegistry()
	for _, tbl := range tables {
		if err := reg.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Registry = reg
	if cfg.Model == nil {
		cfg.Model = BuiltinModel()
	}
	if cfg.MaxPlans == 0 {
		// Smaller than the serving default: deterministic all the same,
		// and it keeps the wide-clause searches fast under -race.
		cfg.MaxPlans = 8192
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// planKey is the plan-cache key the server files req under, so a
// battery can predict which requests share a cached plan.
func planKey(t *testing.T, srv *Server, req QueryRequest) string {
	t.Helper()
	tbl, err := srv.cfg.Registry.Lookup(req.Table)
	if err != nil {
		t.Fatal(err)
	}
	q, err := req.ToEngineQuery()
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Bind(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	return b.PlanKey(req.Limit, req.Offset, req.ColOrder)
}

// directOptions are the engine options the server path is differenced
// against: identical model, rho, search budget, and workers, no memory
// budget.
func directOptions(srv *Server, workers int) engine.Options {
	return engine.Options{
		Massaging: true,
		Model:     srv.cache.model,
		Rho:       srv.cache.rho,
		MaxPlans:  srv.cache.maxPlans,
		Workers:   workers,
	}
}

// reqFromQuery converts an engine query into its wire form (the
// inverse of QueryRequest.ToEngineQuery).
func reqFromQuery(t *testing.T, tableName string, q engine.Query, workers int) QueryRequest {
	t.Helper()
	req := QueryRequest{Table: tableName, ID: q.ID, OrderByAgg: q.OrderByAgg, Workers: workers}
	switch q.Kind {
	case planner.OrderBy:
		req.Kind = "orderby"
	case planner.GroupBy:
		req.Kind = "groupby"
	case planner.PartitionBy:
		req.Kind = "partitionby"
	default:
		t.Fatalf("unknown clause kind %v", q.Kind)
	}
	for _, sc := range q.SortCols {
		req.SortCols = append(req.SortCols, SortColReq{Name: sc.Name, Desc: sc.Desc})
	}
	for _, f := range q.Filters {
		fr := FilterReq{Col: f.Col, Between: f.Between, Lo: f.Lo, Hi: f.Hi, Const: f.Const}
		if !f.Between {
			fr.Op = opString(t, f.Op)
		}
		req.Filters = append(req.Filters, fr)
	}
	if q.Agg != nil {
		a := &AggReq{Col: q.Agg.Col}
		switch q.Agg.Kind {
		case engine.Count:
			a.Kind = "count"
		case engine.Sum:
			a.Kind = "sum"
		case engine.Avg:
			a.Kind = "avg"
		}
		req.Agg = a
	}
	if q.Window != nil {
		req.Window = &WindowReq{OrderCol: q.Window.OrderCol, Desc: q.Window.Desc}
	}
	return req
}

func opString(t *testing.T, op byteslice.Op) string {
	t.Helper()
	switch op {
	case byteslice.EQ:
		return "eq"
	case byteslice.NEQ:
		return "neq"
	case byteslice.LT:
		return "lt"
	case byteslice.LE:
		return "le"
	case byteslice.GT:
		return "gt"
	case byteslice.GE:
		return "ge"
	default:
		t.Fatalf("unknown op %v", op)
		return ""
	}
}

// resultData is the query-data-only projection compared for byte
// identity: exactly the engine-produced fields, none of the serving
// metadata (job ids, cache flags, timings).
type resultData struct {
	Rows       int        `json:"rows"`
	GroupKeys  [][]uint64 `json:"group_keys,omitempty"`
	Aggregates []uint64   `json:"aggregates,omitempty"`
	Ranks      []uint32   `json:"ranks,omitempty"`
	RowOids    []uint32   `json:"row_oids,omitempty"`
}

// canonEngine canonicalizes a direct engine result for comparison.
func canonEngine(res *engine.Result) ([]byte, error) {
	return json.Marshal(resultData{
		Rows:       res.Rows,
		GroupKeys:  res.GroupKeys,
		Aggregates: res.Aggregates,
		Ranks:      res.Ranks,
		RowOids:    res.RowOids,
	})
}

// canonServer canonicalizes a server result the same way.
func canonServer(res *QueryResult) ([]byte, error) {
	return json.Marshal(resultData{
		Rows:       res.Rows,
		GroupKeys:  res.GroupKeys,
		Aggregates: res.Aggregates,
		Ranks:      res.Ranks,
		RowOids:    res.RowOids,
	})
}

// doQuery drives one query through the full handler path — POST
// /query, poll GET /jobs/{id} until terminal, GET /jobs/{id}/result —
// returning errors instead of failing t so concurrent client
// goroutines can use it.
func doQuery(baseURL string, req QueryRequest) (*QueryResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var submit struct {
		JobID string `json:"job_id"`
		Error string `json:"error"`
	}
	if err := decodeBody(resp, &submit); err != nil {
		return nil, err
	}
	if submit.Error != "" {
		return nil, fmt.Errorf("submit (status %d): %s", resp.StatusCode, submit.Error)
	}
	if submit.JobID == "" {
		return nil, fmt.Errorf("submit returned neither job_id nor error (status %d)", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/jobs/" + submit.JobID)
		if err != nil {
			return nil, err
		}
		var st JobStatus
		if err := decodeBody(resp, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case JobDone:
			return fetchResult(baseURL + "/jobs/" + submit.JobID + "/result")
		case JobFailed:
			return nil, fmt.Errorf("job %s failed (%s): %s", st.ID, st.Kind, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 60s", submit.JobID, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// fetchResult fetches one finished job's result frame and decodes it.
func fetchResult(url string) (*QueryResult, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != ResultFrameType {
		return nil, fmt.Errorf("result fetch: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	return ReadResultFrame(resp.Body, MaxResultBytes)
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}
