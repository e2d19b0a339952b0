// The gather's verdicts on a live topology: what a shard answers is
// validated as it lands, a broken answer fails the job typed and
// cancels the shards still working, and a fault inside a run build
// surfaces like one inside the merge.
package shard

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/testutil"
)

// shardDouble stands in front of one shard. rewrite, when set, edits
// every result frame the shard answers with (the edited result is
// re-encoded, so the frame itself stays well-formed); hold, when set,
// runs before each request is forwarded and may block it.
type shardDouble struct {
	rewrite func(*server.QueryResult)
	hold    func(*http.Request)
}

// withDoubles returns a coordinator over healthy's shards with the
// given ones behind their doubles, and the func that shuts it down.
func withDoubles(t *testing.T, healthy *Coordinator, doubles map[int]shardDouble) (*Coordinator, func()) {
	t.Helper()
	cfg := healthy.cfg
	cfg.Shards = slices.Clone(cfg.Shards)
	var proxies []*httptest.Server
	for si, d := range doubles {
		backend, err := url.Parse(cfg.Shards[si])
		if err != nil {
			t.Fatal(err)
		}
		proxy := httputil.NewSingleHostReverseProxy(backend)
		if d.rewrite != nil {
			rewrite := d.rewrite
			proxy.ModifyResponse = func(resp *http.Response) error {
				if resp.Header.Get("Content-Type") != server.ResultFrameType {
					return nil
				}
				res, err := server.ReadResultFrame(resp.Body, server.MaxResultBytes)
				if err != nil {
					return err
				}
				rewrite(res)
				var frame bytes.Buffer
				if err := server.WriteResultFrame(&frame, res); err != nil {
					return err
				}
				resp.Body = io.NopCloser(&frame)
				resp.ContentLength = int64(frame.Len())
				resp.Header.Set("Content-Length", strconv.Itoa(frame.Len()))
				return nil
			}
		}
		var h http.Handler = proxy
		if d.hold != nil {
			hold := d.hold
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Read the body first: only then does the server watch the
				// connection, so that a caller hanging up cancels r's context.
				body, err := io.ReadAll(r.Body)
				if err != nil {
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				hold(r)
				proxy.ServeHTTP(w, r)
			})
		}
		hs := httptest.NewServer(h)
		proxies = append(proxies, hs)
		cfg.Shards[si] = hs.URL
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, func() {
		if err := coord.Shutdown(context.Background()); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		for _, hs := range proxies {
			hs.Close()
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
}

// TestCoordinatorRejectsShortRun: a shard's window run must hold every
// row it counts — all of them for an unlimited query, min(Rows, cut)
// under a LIMIT pre-cut — no shape may count more rows than the shard's
// range has, and no group table may hold more groups than rows. A shard that drops rows (say, one applying a
// stale cut) would otherwise yield a short, wrong answer that passes
// every other check.
func TestCoordinatorRejectsShortRun(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	healthy, done := newTopology(t, tables, 2, Config{})
	defer done()

	window := server.QueryRequest{Table: "narrow0", Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "a"}}, Window: &server.WindowReq{OrderCol: "c"}}
	limited := window
	limited.Limit = intp(9)
	groups := server.QueryRequest{Table: "narrow0", Kind: "groupby",
		SortCols: []server.SortColReq{{Name: "a"}}, Agg: &server.AggReq{Kind: "count"}}
	dropLast := func(res *server.QueryResult) {
		if n := len(res.RowOids); n > 0 {
			res.RowOids = res.RowOids[:n-1]
		}
	}
	inflate := func(res *server.QueryResult) { res.Rows++ }
	// A correct shard cannot return more groups than it has filtered rows.
	moreGroups := func(res *server.QueryResult) { res.Rows = len(res.GroupKeys) - 1 }

	for _, tc := range []struct {
		name    string
		req     server.QueryRequest
		rewrite func(*server.QueryResult)
	}{
		{"unlimited window, last row dropped", window, dropLast},
		{"unlimited window, rows inflated", window, inflate},
		{"pre-cut window, last row dropped", limited, dropLast},
		{"group table, rows past the range", groups, inflate},
		{"group table, more groups than rows", groups, moreGroups},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if _, err := healthy.Run(ctx, tc.req); err != nil {
				t.Fatalf("untampered query: %v", err)
			}
			coord, stop := withDoubles(t, healthy, map[int]shardDouble{1: {rewrite: tc.rewrite}})
			defer stop()
			_, err := coord.Run(ctx, tc.req)
			if kind, retryable, status := classify(err); kind != "shard_invalid" || retryable || status != http.StatusBadGateway {
				t.Errorf("classify = %s/%v/%d, want shard_invalid/false/502 (err: %v)", kind, retryable, status, err)
			}
		})
	}
}

// TestCoordinatorQueriesSkipPackedMerge: no query shape the coordinator
// serves — window, LIMIT window, group table, a clause wider than 64
// bits — reaches the paper's packed stack: neither the packed merge
// (mergesort.ovc_merges) nor a phase-3 pass of the paper kernel moves,
// while every clause whose key and global index fit 63 bits runs
// MergeRunsContext and every wider one mergeWide. The boundary pair
// sits on the edge table (1,501 rows, an 11-bit index): a 52-bit
// window key takes 63 bits with its index and merges as words, a 53-bit
// one takes 64 and merges as code vectors; both answer byte for byte
// what the single node does.
func TestCoordinatorQueriesSkipPackedMerge(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 1501
	edge := table.New("edge", n)
	for _, c := range []*column.Column{synthCol("e1", 26, n, 4, 21), synthCol("e2", 26, n, 0, 22), synthCol("e3", 1, n, 0, 23)} {
		if err := edge.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	tables := append(batteryTables(t), edge)
	coord, done := newTopology(t, tables, 3, Config{DefaultWorkers: 2})
	defer done()

	window := server.QueryRequest{Table: "narrow99", Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}}, Window: &server.WindowReq{OrderCol: "c"}}
	limited := window
	limited.Limit, limited.Offset = intp(40), 7
	groups := server.QueryRequest{Table: "narrow0", Kind: "groupby",
		SortCols: []server.SortColReq{{Name: "a"}, {Name: "c"}}, Agg: &server.AggReq{Kind: "avg", Col: "v"}}
	wide := server.QueryRequest{Table: "wide", Kind: "groupby",
		SortCols: []server.SortColReq{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}, {Name: "w4"}, {Name: "w5"}},
		Agg:      &server.AggReq{Kind: "count"}}
	edge63 := server.QueryRequest{Table: "edge", Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "e1"}}, Window: &server.WindowReq{OrderCol: "e2", Desc: true}}
	edge64 := edge63
	edge64.SortCols = []server.SortColReq{{Name: "e1"}, {Name: "e3"}}
	counter := func(name string) int64 { return obs.NewCounter(name).Value() }
	for _, tc := range []struct {
		name   string
		req    server.QueryRequest
		merges bool // key and index fit 63 bits: MergeRunsContext runs
	}{
		{"window", window, true},
		{"limit", limited, true},
		{"group", groups, true},
		{"wide", wide, false},
		{"edge63", edge63, true},
		{"edge64", edge64, false},
	} {
		ovc0, p30, elems0 := counter("mergesort.ovc_merges"), counter("mergesort.phase3_merge_passes"), counter("mergesort.parallel_merge_elements")
		res, err := coord.Run(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := counter("mergesort.ovc_merges") - ovc0; d != 0 {
			t.Errorf("%s: mergesort.ovc_merges moved by %d", tc.name, d)
		}
		if d := counter("mergesort.phase3_merge_passes") - p30; d != 0 {
			t.Errorf("%s: mergesort.phase3_merge_passes moved by %d", tc.name, d)
		}
		if merged := counter("mergesort.parallel_merge_elements") > elems0; merged != tc.merges {
			t.Errorf("%s: MergeRunsContext ran = %v, want %v", tc.name, merged, tc.merges)
		}
		if tc.req.Table == "edge" {
			if got, want := canonServer(t, res), runOracle(t, edge, tc.req, 2); !bytes.Equal(got, want) {
				t.Errorf("%s: the coordinator's answer differs from the single node's", tc.name)
			}
		}
	}
}

// TestCoordinatorInvalidRunFailsFast: runs are validated as they land,
// so shard 0's out-of-order run fails the job while shard 2 is still
// stalled — as shard_invalid, not as the cancellation it causes — and
// the stalled sub-query is cancelled instead of waited out. The pipeerr
// group's rule that the first non-context error wins is what makes the
// verdict the poison's.
func TestCoordinatorInvalidRunFailsFast(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	healthy, done := newTopology(t, tables, 3, Config{})
	defer done()

	// Shard 0 answers only once shard 2's sub-query is in flight, and
	// shard 2 holds it until the stall elapses or its caller hangs up.
	const stall = 20 * time.Second
	held, cancelled := make(chan struct{}), make(chan struct{})
	var holding, hungUp atomic.Bool
	coord, stop := withDoubles(t, healthy, map[int]shardDouble{
		0: {
			rewrite: func(res *server.QueryResult) { slices.Reverse(res.RowOids) },
			hold: func(*http.Request) {
				select {
				case <-held:
				case <-time.After(stall):
				}
			},
		},
		2: {hold: func(r *http.Request) {
			if holding.CompareAndSwap(false, true) {
				close(held)
			}
			select {
			case <-r.Context().Done():
				if hungUp.CompareAndSwap(false, true) {
					close(cancelled)
				}
			case <-time.After(stall):
			}
		}},
	})
	defer stop()

	req := server.QueryRequest{Table: "narrow0", Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "a"}}, Window: &server.WindowReq{OrderCol: "c"}}
	start := time.Now()
	_, err := coord.Run(context.Background(), req)
	if elapsed := time.Since(start); elapsed >= stall/2 {
		t.Errorf("the job took %v: it waited for the stalled shard", elapsed)
	}
	if kind, retryable, status := classify(err); kind != "shard_invalid" || retryable || status != http.StatusBadGateway {
		t.Errorf("classify = %s/%v/%d, want shard_invalid/false/502 (err: %v)", kind, retryable, status, err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Error("the stalled shard's sub-query was never cancelled")
	}
}

// TestShardMergeSitePanics: the shard.merge site fires at the start of
// every run build, on the fan-out goroutines, and once more before the
// merge, on the job's. A panic at either surfaces with one verdict —
// the retryable pipeline kind a contained panic has always had.
func TestShardMergeSitePanics(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 3, Config{})
	defer done()

	req := server.QueryRequest{Table: "narrow99", Kind: "partitionby",
		SortCols: []server.SortColReq{{Name: "a"}}, Window: &server.WindowReq{OrderCol: "c"}}
	// Three builds fire first, then the merge: strike the first and the fourth.
	for _, strike := range []int64{1, 4} {
		var fired atomic.Int64
		restore := faultinject.Set(faultinject.ShardMerge, func() {
			if fired.Add(1) == strike {
				panic("injected shard.merge panic")
			}
		})
		_, err := coord.Run(context.Background(), req)
		restore()
		if kind, retryable, status := classify(err); kind != "pipeline" || !retryable || status != http.StatusInternalServerError {
			t.Errorf("strike %d: classify = %s/%v/%d, want pipeline/true/500 (err: %v)", strike, kind, retryable, status, err)
		}
		if got := fired.Load(); got < strike {
			t.Errorf("strike %d: the site fired %d times", strike, got)
		}
	}
	if _, err := coord.Run(context.Background(), req); err != nil {
		t.Errorf("after the strikes: %v", err)
	}
}
