package server

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/testutil"
)

// TestValidateOidsOnly: oids_only is a window-query field. Validate
// accepts it on partitionby and refuses it on orderby and groupby.
func TestValidateOidsOnly(t *testing.T) {
	cols := []SortColReq{{Name: "a"}}
	for _, tc := range []struct {
		req QueryRequest
		ok  bool
	}{
		{QueryRequest{Kind: "partitionby", Window: &WindowReq{OrderCol: "c"}}, true},
		{QueryRequest{Kind: "orderby"}, false},
		{QueryRequest{Kind: "groupby", Agg: &AggReq{Kind: "count"}}, false},
	} {
		req := tc.req
		req.Table, req.SortCols = "t", cols
		if err := req.Validate(); err != nil {
			t.Fatalf("%s without oids_only: %v", req.Kind, err)
		}
		req.OidsOnly = true
		err := req.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s with oids_only refused: %v", req.Kind, err)
		}
		if !tc.ok && !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s with oids_only: err %v, want ErrInvalidRequest", req.Kind, err)
		}
	}
}

// TestOidsOnlyWindowQuery: a window query with oids_only answers the
// same rows and row oids as the query without it, and no ranks, at
// workers 1 and 2, unlimited and for one LIMIT/OFFSET page. The field
// is not part of the plan-cache key, so the oids-only query reuses the
// plan the ranked one cached.
func TestOidsOnlyWindowQuery(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	items, tables := limitBatteryItems(t, 3000)
	srv := newTestServer(t, Config{MaxConcurrent: 2}, tables...)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	window := items[0] // limitBatteryItems puts its window query first
	if window.Query.Window == nil {
		t.Fatal("the battery's first item is not a window query")
	}
	limit := 100
	for _, workers := range []int{1, 2} {
		for _, page := range []struct {
			limit  *int
			offset int
		}{{nil, 0}, {&limit, 7}} {
			req := reqFromQuery(t, window.Table.Name, window.Query, workers)
			req.Limit, req.Offset = page.limit, page.offset
			ranked, err := srv.Run(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			req.OidsOnly = true
			bare, err := srv.Run(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			label := func() string {
				if page.limit == nil {
					return "unlimited"
				}
				return "LIMIT 100 OFFSET 7"
			}()
			if len(ranked.Ranks) == 0 || len(ranked.RowOids) != len(ranked.Ranks) {
				t.Fatalf("workers %d, %s: the ranked query answered %d oids and %d ranks", workers, label, len(ranked.RowOids), len(ranked.Ranks))
			}
			if bare.Ranks != nil {
				t.Errorf("workers %d, %s: oids_only answered %d ranks, want none", workers, label, len(bare.Ranks))
			}
			if bare.Rows != ranked.Rows || !slices.Equal(bare.RowOids, ranked.RowOids) {
				t.Errorf("workers %d, %s: oids_only answered %d rows and %d oids, the ranked query %d and %d, or the oids differ",
					workers, label, bare.Rows, len(bare.RowOids), ranked.Rows, len(ranked.RowOids))
			}
			if !bare.PlanCacheHit || bare.Plan != ranked.Plan {
				t.Errorf("workers %d, %s: oids_only missed the ranked query's cached plan (hit %v, plan %s vs %s)", workers, label, bare.PlanCacheHit, bare.Plan, ranked.Plan)
			}
		}
	}
}
