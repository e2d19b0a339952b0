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
}
