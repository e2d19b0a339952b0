package shard

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/byteslice"
	"repro/internal/chaos"
	"repro/internal/column"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/table"
)

func TestMain(m *testing.M) {
	obs.Enable()
	os.Exit(m.Run())
}

// testMaxPlans is the counted search budget every side of a battery
// comparison shares — coordinator pin, shard servers, and the direct
// engine oracle. Identical budgets are what the determinism keystone
// requires; the value itself just has to keep the wide-clause searches
// fast under -race.
const testMaxPlans = 1024

// synthCol draws n codes of the given bit width from domain distinct
// values (0 = the full width's range), deterministically from seed.
func synthCol(name string, width, n, domain int, seed uint64) *column.Column {
	rng := chaos.NewRand(seed)
	max := uint64(1)<<uint(width) - 1
	codes := make([]uint64, n)
	for i := range codes {
		v := rng.Uint64()
		if domain > 0 {
			codes[i] = v % uint64(domain)
		} else {
			codes[i] = v & max
		}
	}
	return column.FromCodes(name, width, codes)
}

// batteryTables builds the battery's synthetic tables:
//
//   - narrow0:  mostly-distinct keys, packed sort keys <= 64 bits;
//   - narrow99: ~99% duplicate keys (domains of 3/3/2 values), so ties
//     span shard boundaries — the tie-canonicalization stress;
//   - wide:     five 16-bit key columns, so group merges (80 bits) and
//     window merges (4x16+16 bits) take the wide lexicographic path.
//
// Row counts are odd on purpose: i·n/N ranges are uneven.
func batteryTables(t *testing.T) []*table.Table {
	t.Helper()
	mk := func(name string, n int, cols ...*column.Column) *table.Table {
		tbl := table.New(name, n)
		for _, c := range cols {
			if err := tbl.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	const n0 = 1501
	narrow0 := mk("narrow0", n0,
		synthCol("a", 9, n0, 0, 1),
		synthCol("b", 7, n0, 0, 2),
		synthCol("c", 5, n0, 0, 3),
		synthCol("v", 10, n0, 0, 4),
		synthCol("f", 6, n0, 0, 5),
	)
	narrow99 := mk("narrow99", n0,
		synthCol("a", 9, n0, 3, 6),
		synthCol("b", 7, n0, 3, 7),
		synthCol("c", 5, n0, 2, 8),
		synthCol("v", 10, n0, 0, 9),
		synthCol("f", 6, n0, 0, 10),
	)
	const nw = 1203
	wide := mk("wide", nw,
		synthCol("w1", 16, nw, 9, 11),
		synthCol("w2", 16, nw, 7, 12),
		synthCol("w3", 16, nw, 5, 13),
		synthCol("w4", 16, nw, 4, 14),
		synthCol("w5", 16, nw, 6, 15),
		synthCol("v", 10, nw, 0, 16),
	)
	return []*table.Table{narrow0, narrow99, wide}
}

// newTopology spins up nShards single-node servers over Slice'd
// registries plus a coordinator over them, all with the deterministic
// test keystone (builtin model, the same MaxPlans; the daemons read
// no clock). The
// returned func shuts everything down; call it before the leak check
// runs.
func newTopology(t *testing.T, tables []*table.Table, nShards int, coordCfg Config) (*Coordinator, func()) {
	t.Helper()
	var closers []func()
	urls := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		reg := server.NewRegistry()
		for _, tbl := range tables {
			st, err := Slice(tbl, Ranges(tbl.N, nShards)[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := server.New(server.Config{
			Registry:      reg,
			Model:         server.BuiltinModel(),
			MaxPlans:      testMaxPlans,
			MaxConcurrent: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		urls[i] = hs.URL
		closers = append(closers, func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("shard server shutdown: %v", err)
			}
			hs.Close()
		})
	}

	fullReg := server.NewRegistry()
	for _, tbl := range tables {
		if err := fullReg.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	coordCfg.Registry = fullReg
	coordCfg.Shards = urls
	if coordCfg.Model == nil {
		coordCfg.Model = server.BuiltinModel()
	}
	if coordCfg.MaxPlans == 0 {
		coordCfg.MaxPlans = testMaxPlans
	}
	if coordCfg.Client.PollInterval == 0 {
		coordCfg.Client.PollInterval = time.Millisecond
	}
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, func() {
		if err := coord.Shutdown(context.Background()); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
}

// resultData is the canonical comparison form: exactly the data fields
// the byte-identity claim covers. Metadata (plan string, timings,
// job ids) may legitimately differ between a coordinator and a direct
// engine run. omitempty normalizes nil and empty slices.
type resultData struct {
	Rows       int        `json:"rows"`
	GroupKeys  [][]uint64 `json:"group_keys,omitempty"`
	Aggregates []uint64   `json:"aggregates,omitempty"`
	Ranks      []uint32   `json:"ranks,omitempty"`
	RowOids    []uint32   `json:"row_oids,omitempty"`
}

func canonEngine(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	b, err := json.Marshal(resultData{Rows: res.Rows, GroupKeys: res.GroupKeys,
		Aggregates: res.Aggregates, Ranks: res.Ranks, RowOids: res.RowOids})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func canonServer(t *testing.T, res *server.QueryResult) []byte {
	t.Helper()
	b, err := json.Marshal(resultData{Rows: res.Rows, GroupKeys: res.GroupKeys,
		Aggregates: res.Aggregates, Ranks: res.Ranks, RowOids: res.RowOids})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runOracle executes the request directly through engine.RunContext on
// the full table — the single-node ground truth every merged result
// must match byte for byte.
func runOracle(t *testing.T, tbl *table.Table, req server.QueryRequest, workers int) []byte {
	t.Helper()
	return canonEngine(t, runOracleResult(t, tbl, req, workers))
}

// runOracleResult is runOracle keeping the engine's whole result: the
// battery also holds the coordinator's pinned plan to the single node's.
func runOracleResult(t *testing.T, tbl *table.Table, req server.QueryRequest, workers int) *engine.Result {
	t.Helper()
	q, err := req.ToEngineQuery()
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{
		Massaging: true,
		Model:     server.BuiltinModel(),
		Rho:       -1,
		MaxPlans:  testMaxPlans,
		Workers:   workers,
		Offset:    req.Offset,
	}
	if req.Limit != nil {
		lim := *req.Limit
		opts.Limit = &lim
	}
	res, err := engine.RunContext(context.Background(), tbl, q, opts)
	if err != nil {
		t.Fatalf("oracle %s: %v", req.ID, err)
	}
	return res
}

// fetchResult runs req as a job on coord and fetches its result frame
// through the handler.
func fetchResult(t *testing.T, label string, coord *Coordinator, req server.QueryRequest) *server.QueryResult {
	t.Helper()
	id, err := coord.Submit(req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := coord.Wait(context.Background(), id); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id+"/result", nil))
	if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || ct != server.ResultFrameType {
		t.Fatalf("%s: result fetch answered %d %q", label, rec.Code, ct)
	}
	res, err := server.ReadResultFrame(rec.Body, server.MaxResultBytes)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// intp makes limit pointers readable in table literals.
func intp(v int) *int { return &v }

// testutilTPCH generates the TPC-H WideTable the workload battery runs
// over.
func testutilTPCH(t *testing.T, rows int) *table.Table {
	t.Helper()
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// wireRequest converts an engine query to its wire form (the inverse
// of QueryRequest.ToEngineQuery).
func wireRequest(t *testing.T, tableName string, q engine.Query, workers int) server.QueryRequest {
	t.Helper()
	req := server.QueryRequest{Table: tableName, ID: q.ID, OrderByAgg: q.OrderByAgg, Workers: workers}
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
		req.SortCols = append(req.SortCols, server.SortColReq{Name: sc.Name, Desc: sc.Desc})
	}
	for _, f := range q.Filters {
		fr := server.FilterReq{Col: f.Col, Between: f.Between, Lo: f.Lo, Hi: f.Hi, Const: f.Const}
		if !f.Between {
			switch f.Op {
			case byteslice.EQ:
				fr.Op = "eq"
			case byteslice.NEQ:
				fr.Op = "neq"
			case byteslice.LT:
				fr.Op = "lt"
			case byteslice.LE:
				fr.Op = "le"
			case byteslice.GT:
				fr.Op = "gt"
			case byteslice.GE:
				fr.Op = "ge"
			default:
				t.Fatalf("unknown filter op %v", f.Op)
			}
		}
		req.Filters = append(req.Filters, fr)
	}
	if q.Agg != nil {
		a := &server.AggReq{Col: q.Agg.Col}
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
		req.Window = &server.WindowReq{OrderCol: q.Window.OrderCol, Desc: q.Window.Desc}
	}
	return req
}
