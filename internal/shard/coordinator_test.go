package shard

import (
	"testing"

	"repro/internal/server"
)

// TestSubRequestsOidsOnlyForWindows: the coordinator asks for oids
// only on a window sub-query, unlimited or pre-cut, and on no other
// shape: an ORDER BY, a group table, an aggregate-ordered one and both
// of avg's sub-queries carry their data and never the field.
func TestSubRequestsOidsOnlyForWindows(t *testing.T) {
	cols := []server.SortColReq{{Name: "a"}}
	window := server.QueryRequest{Table: "narrow0", Kind: "partitionby", SortCols: cols, Window: &server.WindowReq{OrderCol: "c"}}
	page := window
	page.Limit, page.Offset = intp(9), 2
	group := func(agg server.AggReq, orderByAgg bool) server.QueryRequest {
		return server.QueryRequest{Table: "narrow0", Kind: "groupby", SortCols: cols, Agg: &agg, OrderByAgg: orderByAgg}
	}
	for _, tc := range []struct {
		name string
		req  server.QueryRequest
		subs int
		want bool
	}{
		{"window", window, 1, true},
		{"window page", page, 1, true},
		{"orderby", server.QueryRequest{Table: "narrow0", Kind: "orderby", SortCols: cols}, 1, false},
		{"count", group(server.AggReq{Kind: "count"}, false), 1, false},
		{"sum by aggregate", group(server.AggReq{Kind: "sum", Col: "c"}, true), 1, false},
		{"avg", group(server.AggReq{Kind: "avg", Col: "c"}, false), 2, false},
		{"avg by aggregate", group(server.AggReq{Kind: "avg", Col: "c"}, true), 2, false},
	} {
		if err := tc.req.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		q, err := tc.req.ToEngineQuery()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		subs := buildSubRequests(tc.req, q, nil)
		if len(subs) != tc.subs {
			t.Fatalf("%s: %d sub-queries, want %d", tc.name, len(subs), tc.subs)
		}
		for i, sub := range subs {
			if sub.OidsOnly != tc.want {
				t.Errorf("%s: sub-query %d oids_only = %v, want %v", tc.name, i, sub.OidsOnly, tc.want)
			}
			if err := sub.Validate(); err != nil {
				t.Errorf("%s: sub-query %d fails validation: %v", tc.name, i, err)
			}
		}
	}
}
