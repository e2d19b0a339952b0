package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/testutil"
)

// TestJobTableBounded pins the retention contract of the job table:
// finished jobs beyond maxFinishedJobs are evicted oldest-first (their
// ids read as unknown jobs), the newest stay fetchable, and the table
// itself never holds more than the bound once everything has settled.
// Before the bound, a long-lived daemon retained every result it ever
// produced.
func TestJobTableBounded(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 64)
	srv := newTestServer(t, Config{}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const extra = 8
	req := QueryRequest{Table: tbl.Name, Kind: "orderby", SortCols: []SortColReq{{Name: "l_returnflag"}}}
	for i := 1; i <= maxFinishedJobs+extra; i++ {
		id, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("j%d", i); id != want {
			t.Fatalf("job id %q, want %q", id, want)
		}
		if _, err := srv.Wait(context.Background(), id); err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
	}

	for i := 1; i <= extra; i++ {
		_, err := srv.Status(fmt.Sprintf("j%d", i))
		if !errors.Is(err, errNoJob) {
			t.Errorf("evicted j%d: Status error %v, want errNoJob", i, err)
		}
	}
	for i := extra + 1; i <= maxFinishedJobs+extra; i += maxFinishedJobs - 1 {
		id := fmt.Sprintf("j%d", i)
		res, err := srv.Result(id)
		if err != nil || res.Rows != tbl.N || res.JobID != id {
			t.Errorf("retained %s: result %+v, err %v", id, res, err)
		}
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != maxFinishedJobs {
		t.Errorf("job table holds %d jobs, want %d", n, maxFinishedJobs)
	}

	// Large results: the table is bounded by what it retains, not only by
	// how many. The stub backend's results share one untouched backing
	// array, so only their declared weight is large.
	t.Run("by weight", func(t *testing.T) {
		var rows []uint32
		f := NewFront(Backend{
			Execute: func(_ context.Context, jobID string, _ QueryRequest, markRunning func(), _ func(float64)) (*QueryResult, error) {
				markRunning()
				return &QueryResult{JobID: jobID, Ranks: rows, RowOids: rows}, nil
			},
			Classify: Classify,
			Queries:  obsServerQueries, Errors: obsServerErrors, ContainedPanics: obsContainedPanics,
		})
		defer func() {
			if err := f.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		submit := func(n int) string {
			rows = make([]uint32, n)
			id, err := f.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(context.Background(), id); err != nil {
				t.Fatalf("job %s: %v", id, err)
			}
			return id
		}
		retained := func() (ids int, bytes int64) {
			f.mu.Lock()
			defer f.mu.Unlock()
			return len(f.jobs), f.retainedBytes
		}

		// Eight results of an eighth of the limit fit; each further one
		// evicts the oldest.
		const each = MaxResultBytes / 8 / 8 // rows: 4 bytes of rank + 4 of oid
		for i := 1; i <= 12; i++ {
			submit(each)
		}
		if ids, bytes := retained(); ids != 8 || bytes != MaxResultBytes {
			t.Errorf("after 12 results of %d bytes: %d jobs retaining %d bytes, want 8 retaining %d", 8*each, ids, bytes, MaxResultBytes)
		}
		for i, wantGone := range map[int]bool{1: true, 4: true, 5: false, 12: false} {
			if _, err := f.Result(fmt.Sprintf("j%d", i)); errors.Is(err, errNoJob) != wantGone {
				t.Errorf("j%d: Result error %v, want evicted=%v", i, err, wantGone)
			}
		}
		// One result over the limit evicts everything older but is itself
		// fetchable: the newest job is never evicted.
		big := submit(MaxResultBytes/8 + 1)
		if res, err := f.Result(big); err != nil || len(res.RowOids) != MaxResultBytes/8+1 {
			t.Errorf("over-limit newest %s: err %v", big, err)
		}
		if ids, _ := retained(); ids != 1 {
			t.Errorf("an over-limit result shares the table with %d older jobs, want none", ids-1)
		}
		// The next result, however small, becomes the newest: the
		// over-limit one goes.
		small := submit(1)
		if ids, bytes := retained(); ids != 1 || bytes != 8 {
			t.Errorf("after a small result: %d jobs, %d bytes; want the over-limit one evicted", ids, bytes)
		}
		if _, err := f.Result(small); err != nil {
			t.Errorf("newest %s: %v", small, err)
		}
	})
}
