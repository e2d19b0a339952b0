package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pipeerr"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

func TestAdmissionConcurrencyLimit(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	a := newAdmission(1, 0)
	release, _, err := a.admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// The second query must queue, then time out with the typed error.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := a.admit(ctx, 0); err == nil {
		t.Fatal("second admit succeeded past maxConcurrent=1")
	} else {
		if !errors.Is(err, pipeerr.ErrQueueTimeout) {
			t.Errorf("queue expiry error %v does not wrap ErrQueueTimeout", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("queue expiry error %v does not wrap DeadlineExceeded", err)
		}
	}

	// After release the slot is available again.
	release()
	release2, _, err := a.admit(context.Background(), 0)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	release2()
}

func TestAdmissionReleaseWakesWaiter(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	a := newAdmission(1, 0)
	release, _, err := a.admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	admitted := make(chan error, 1)
	go func() {
		r, wait, err := a.admit(context.Background(), 0)
		if err == nil {
			if wait < 0 {
				err = errors.New("negative queue wait")
			}
			r()
		}
		admitted <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue
	release()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("waiter not admitted after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still queued after release")
	}
}

func TestAdmissionByteBudget(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	a := newAdmission(4, 100)
	r1, _, err := a.admit(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}

	// 60 + 60 > 100: the second query queues despite free slots.
	admitted := make(chan error, 1)
	go func() {
		r2, _, err := a.admit(context.Background(), 60)
		if err == nil {
			r2()
		}
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("over-budget query admitted immediately (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
		// Still queued: correct.
	}
	r1()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("queued query failed after bytes freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query never admitted after bytes freed")
	}
}

// A query whose estimate alone exceeds the budget must still be
// admitted when nothing else runs — the engine's per-query budget then
// degrades or refuses it; the queue must not deadlock.
func TestAdmissionOverBudgetAloneAdmitted(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	a := newAdmission(4, 100)
	release, _, err := a.admit(context.Background(), 1000)
	if err != nil {
		t.Fatalf("lone over-budget query refused at admission: %v", err)
	}
	release()
}

func TestAdmissionClose(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	a := newAdmission(1, 0)
	release, _, err := a.admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// A queued waiter fails fast with ErrShuttingDown on close.
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := a.admit(context.Background(), 0)
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.close()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrShuttingDown) {
			t.Errorf("queued waiter error = %v, want ErrShuttingDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter hung through close")
	}

	// New admissions are refused; the running query's release is benign.
	if _, _, err := a.admit(context.Background(), 0); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-close admit error = %v, want ErrShuttingDown", err)
	}
	release()
}

func TestRefuseOverBudget(t *testing.T) {
	// Unlimited budget: workers pass through (floored at 1).
	a := newAdmission(4, 0)
	if w, err := a.refuseOverBudget(0, func(int) int64 { return 1 << 40 }); err != nil || w != 1 {
		t.Errorf("unlimited budget: (%d, %v), want (1, nil)", w, err)
	}

	// Bounded budget degrades workers until the estimate fits.
	a = newAdmission(4, 300)
	w, err := a.refuseOverBudget(4, func(w int) int64 { return int64(w) * 200 })
	if err != nil {
		t.Fatalf("degradable query refused: %v", err)
	}
	if got := int64(w) * 200; got > 300 {
		t.Errorf("degraded to %d workers (est %d), still over budget 300", w, got)
	}

	// Even sequential execution over budget: typed refusal.
	if _, err := a.refuseOverBudget(4, func(int) int64 { return 1000 }); !errors.Is(err, pipeerr.ErrBudgetExceeded) {
		t.Errorf("non-degradable query error = %v, want ErrBudgetExceeded", err)
	}
}

// TestReservedRoundsBoundWorkloadPlans: admission charges a query for
// reservedRounds rounds, so no plan the served search chooses may have
// more: every workload query's plan over 2^15-row tables, unlimited and
// for its first page of ten, stays within it.
func TestReservedRoundsBoundWorkloadPlans(t *testing.T) {
	const rows = 1 << 15
	tpch := testTPCH(t, rows)
	skew, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Skew: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := datagen.AirlineTicket(datagen.AirlineConfig{Rows: rows, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	market, err := datagen.AirlineMarket(datagen.AirlineConfig{Rows: rows, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := append(workloads.TPCHQueries(tpch, ""), workloads.TPCHQueries(skew, ".skew")...)
	items = append(items, workloads.TPCDSQueries(testTPCDS(t, rows))...)
	items = append(items, workloads.AirlineQueries(ticket, market)...)
	srv := newTestServer(t, Config{})
	ctx := context.Background()
	defer func() {
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	ten := 10
	for _, it := range items {
		b, err := engine.Bind(it.Table, it.Query)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := b.Select(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []*int{nil, &ten} {
			opts := directOptions(srv, 1)
			opts.Limit = limit
			choice, _, err := b.ChoosePlan(ctx, sel.Count(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, bound := len(choice.Plan.Rounds), reservedRounds(b); got > bound {
				t.Errorf("%s limit=%v: plan %v has %d rounds, admission reserves %d", it.ID, limit != nil, choice.Plan, got, bound)
			}
		}
	}
}

// TestAdmissionReservesEveryRound pins the reservation on a query whose
// plan has more rounds than one per 16 bits of its key: a LIMIT 50
// GROUP BY over 9-, 14- and 20-bit columns (W = 43) whose plan takes
// four rounds. Under a server budget of exactly its reservation at one
// worker it runs; a reservation of ⌈W/16⌉ = 3 rounds is below the
// plan's own footprint, so the engine's stage-2 check would refuse it.
func TestAdmissionReservesEveryRound(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const n = 1 << 16
	rng := rand.New(rand.NewSource(21))
	tbl := table.New("rounds", n)
	for _, c := range []struct {
		name        string
		width, card int
	}{{"g9", 9, 300}, {"g14", 14, 9000}, {"g20", 20, 200000}} {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(rng.Intn(c.card))
		}
		if err := tbl.Add(column.FromCodes(c.name, c.width, codes)); err != nil {
			t.Fatal(err)
		}
	}
	q := engine.Query{ID: "rounds", Kind: planner.GroupBy, Agg: &engine.Agg{Kind: engine.Count},
		SortCols: []engine.SortCol{{Name: "g9"}, {Name: "g14"}, {Name: "g20"}}}
	b, err := engine.Bind(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	reserved := reservedRounds(b)
	budget := engine.EstimatePipelineBytes(n, reserved, 1)
	srv := newTestServer(t, Config{MaxBytes: budget}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	req := reqFromQuery(t, tbl.Name, q, 1)
	fifty := 50
	req.Limit = &fifty
	res, err := doQuery(hs.URL, req)
	if err != nil {
		t.Fatalf("query under a budget of its reservation (%d rounds): %v", reserved, err)
	}
	rounds := strings.Count(res.Plan, "R")
	if old := (43 + 15) / 16; rounds <= old || rounds > reserved {
		t.Fatalf("plan %s has %d rounds; want more than %d and at most %d", res.Plan, rounds, old, reserved)
	}
	if len(res.GroupKeys) != 50 {
		t.Fatalf("%d groups, want 50", len(res.GroupKeys))
	}
}
