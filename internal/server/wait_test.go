package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// stubFront is a Front over a backend whose Execute runs exec: no
// table, admission or engine behind it.
func stubFront(t *testing.T, exec func(ctx context.Context, jobID string) (*QueryResult, error)) *Front {
	t.Helper()
	f := NewFront(Backend{
		Execute: func(ctx context.Context, jobID string, _ QueryRequest, markRunning func(), _ func(float64)) (*QueryResult, error) {
			markRunning()
			return exec(ctx, jobID)
		},
		Classify: Classify,
		Queries:  obsServerQueries, Errors: obsServerErrors, ContainedPanics: obsContainedPanics,
	})
	t.Cleanup(func() {
		if err := f.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return f
}

var stubReq = QueryRequest{Table: "t", Kind: "orderby", SortCols: []SortColReq{{Name: "a"}}}

func TestPreferredWait(t *testing.T) {
	for _, tc := range []struct {
		prefer []string
		want   time.Duration
	}{
		{nil, 0},
		{[]string{"wait=0"}, 0},
		{[]string{"wait=3"}, 3 * time.Second},
		{[]string{"WAIT = 3"}, 3 * time.Second},
		{[]string{`wait="3"`}, 3 * time.Second},
		{[]string{"respond-async, wait=2;foo=bar"}, 2 * time.Second},
		{[]string{"return=minimal", "wait=4"}, 4 * time.Second},
		{[]string{"wait=4, wait=9"}, 4 * time.Second}, // the first instance counts
		{[]string{"wait=3600"}, maxPreferWait},
		{[]string{"wait=99999999999999999999"}, 0},
		{[]string{"wait=-1"}, 0},
		{[]string{"wait=1.5"}, 0},
		{[]string{"wait"}, 0},
		{[]string{"waiting=3"}, 0},
		{[]string{"return=minimal"}, 0},
	} {
		h := http.Header{}
		for _, v := range tc.prefer {
			h.Add("Prefer", v)
		}
		if got := preferredWait(h); got != tc.want {
			t.Errorf("Prefer %q: wait %v, want %v", tc.prefer, got, tc.want)
		}
	}
}

// TestSubmitWaitDeliversOrRetains races settling against the end of
// the wait over many jobs: every job either comes back delivered and
// is unknown to the table, or comes back as an id whose outcome the
// table serves — never both, never neither — and the retention ring
// holds exactly the jobs that were not delivered.
func TestSubmitWaitDeliversOrRetains(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const jobs = 1200
	errStub := pipeerr.ErrBudgetExceeded
	f := stubFront(t, func(_ context.Context, jobID string) (*QueryResult, error) {
		var i int
		if _, err := fmt.Sscanf(jobID, "j%d", &i); err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(i%7) * 20 * time.Microsecond)
		if i%3 == 0 {
			return nil, errStub
		}
		return &QueryResult{JobID: jobID, Rows: i}, nil
	})
	ctx := context.Background()
	delivered, kept := 0, 0
	for i := 1; i <= jobs; i++ {
		wait := time.Duration(i%5) * 30 * time.Microsecond
		if i%11 == 0 {
			wait = time.Minute // settles inside the wait
		}
		j, done, err := f.submitWait(ctx, stubReq, wait)
		if err != nil {
			t.Fatal(err)
		}
		wantErr := i%3 == 0
		if done {
			delivered++
			if (j.err != nil) != wantErr || (!wantErr && j.res.Rows != i) {
				t.Fatalf("%s delivered res %+v err %v", j.id, j.res, j.err)
			}
			if _, err := f.Status(j.id); !errors.Is(err, errNoJob) {
				t.Fatalf("delivered %s: Status error %v, want errNoJob", j.id, err)
			}
			continue
		}
		kept++
		res, err := f.Wait(ctx, j.id)
		if (err != nil) != wantErr || (!wantErr && res.Rows != i) {
			t.Fatalf("retained %s: res %+v err %v", j.id, res, err)
		}
		if res, err := f.Result(j.id); (err != nil) != wantErr || (!wantErr && res.Rows != i) {
			t.Fatalf("retained %s: fetched res %+v err %v", j.id, res, err)
		}
	}
	if delivered == 0 || kept == 0 {
		t.Fatalf("%d delivered, %d retained: the loop must exercise both outcomes", delivered, kept)
	}
	f.mu.Lock()
	settlements := f.nFinished
	f.mu.Unlock()
	if settlements != kept {
		t.Errorf("retention ring saw %d settlements, want the %d undelivered jobs", settlements, kept)
	}
}

// TestSubmitWaitExpires: a job still running when the wait or the
// request ends is handed back as an id; polling and fetching it work
// as for any async submit.
func TestSubmitWaitExpires(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	release := make(chan struct{})
	f := stubFront(t, func(_ context.Context, jobID string) (*QueryResult, error) {
		<-release
		return &QueryResult{JobID: jobID, Rows: 7}, nil
	})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var ids []string
	for _, tc := range []struct {
		name string
		ctx  context.Context
		wait time.Duration
	}{
		{"wait ends", context.Background(), 20 * time.Millisecond},
		{"request ends", cancelled, time.Minute},
	} {
		j, done, err := f.submitWait(tc.ctx, stubReq, tc.wait)
		if err != nil || done {
			t.Fatalf("%s: done %v err %v, want an undelivered job", tc.name, done, err)
		}
		if st, err := f.Status(j.id); err != nil || st.State == JobDone {
			t.Fatalf("%s: status %+v err %v, want a pending job", tc.name, st, err)
		}
		ids = append(ids, j.id)
	}
	close(release)
	for _, id := range ids {
		if _, err := f.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if res, err := f.Result(id); err != nil || res.Rows != 7 || res.JobID != id {
			t.Errorf("%s: result %+v err %v", id, res, err)
		}
	}
}

// TestStatusLongPoll: GET /jobs/{id} with Prefer: wait answers once the
// job settles; without it, at once.
func TestStatusLongPoll(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	release := make(chan struct{})
	f := stubFront(t, func(_ context.Context, jobID string) (*QueryResult, error) {
		<-release
		return &QueryResult{JobID: jobID}, nil
	})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // before the front's shutdown, also on a failed check
	hs := httptest.NewServer(f.Handler())
	defer hs.Close()
	id, err := f.Submit(stubReq)
	if err != nil {
		t.Fatal(err)
	}
	status := func(id, prefer string) (int, JobStatus) {
		var st JobStatus
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Error(err)
			return 0, st
		}
		if prefer != "" {
			req.Header.Set("Prefer", prefer)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, st
		}
		if err := decodeBody(resp, &st); err != nil {
			t.Error(err)
		}
		return resp.StatusCode, st
	}
	if _, st := status(id, ""); st.State == JobDone {
		t.Fatalf("status %+v before release", st)
	}
	polled := make(chan JobStatus)
	go func() {
		_, st := status(id, "wait=20")
		polled <- st
	}()
	select {
	case st := <-polled:
		t.Fatalf("long-poll answered %+v before the job settled", st)
	case <-time.After(50 * time.Millisecond):
	}
	releaseOnce()
	if st := <-polled; st.State != JobDone {
		t.Errorf("long-poll status %+v, want done", st)
	}
	if _, st := status(id, "wait=20"); st.State != JobDone {
		t.Errorf("settled job long-poll %+v, want done at once", st)
	}
	if code, _ := status("zz", "wait=20"); code != http.StatusNotFound {
		t.Errorf("unknown job long-poll: %d, want 404", code)
	}
}
