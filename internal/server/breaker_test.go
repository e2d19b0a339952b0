package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// TestBreakerUnit pins the state machine without a server: closed →
// open at the threshold, half-open after the cooldown, closed on the
// next success, and re-opened (fresh cooldown) by a panic while
// half-open.
func TestBreakerUnit(t *testing.T) {
	b := newPanicBreaker(3, 50*time.Millisecond)
	if b.state() != breakerClosed {
		t.Fatalf("initial state = %v", b.state())
	}
	b.recordPanic()
	b.recordPanic()
	if b.state() != breakerClosed {
		t.Fatalf("below threshold state = %v, want closed", b.state())
	}
	// A success between panics resets the consecutive count: the
	// breaker trips on runs, not totals.
	b.recordSuccess()
	b.recordPanic()
	b.recordPanic()
	if b.state() != breakerClosed {
		t.Fatalf("run broken by success: state = %v, want closed", b.state())
	}
	b.recordPanic()
	if b.state() != breakerOpen {
		t.Fatalf("at threshold state = %v, want open", b.state())
	}
	// Cooldown elapses: half-open.
	time.Sleep(60 * time.Millisecond)
	if b.state() != breakerHalfOpen {
		t.Fatalf("after cooldown state = %v, want half-open", b.state())
	}
	// A panic during half-open re-opens for a fresh cooldown.
	b.recordPanic()
	if b.state() != breakerOpen {
		t.Fatalf("panic in half-open: state = %v, want open", b.state())
	}
	time.Sleep(60 * time.Millisecond)
	if b.state() != breakerHalfOpen {
		t.Fatalf("after second cooldown state = %v, want half-open", b.state())
	}
	// A clean query closes it.
	b.recordSuccess()
	if b.state() != breakerClosed {
		t.Fatalf("success in half-open: state = %v, want closed", b.state())
	}
}

// TestBreakerDisabled: threshold <= 0 never trips.
func TestBreakerDisabled(t *testing.T) {
	b := newPanicBreaker(0, time.Millisecond)
	for i := 0; i < 100; i++ {
		b.recordPanic()
	}
	if b.state() != breakerClosed {
		t.Fatalf("disabled breaker state = %v, want closed", b.state())
	}
}

// TestBreakerTripHalfOpenRecover drives the full trip → degraded
// /readyz → half-open → recover sequence through a live server with an
// injected panic storm: contained panics fail their jobs typed, trip
// the breaker at the threshold (readyz 503 while /livez stays 200),
// and after the cooldown one clean query closes the breaker and
// /readyz reports ready again.
func TestBreakerTripHalfOpenRecover(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 1000)
	const cooldown = 100 * time.Millisecond
	srv := newTestServer(t, Config{
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
	}, tbl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	readyz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status  string `json:"status"`
			Breaker string `json:"breaker"`
		}
		if err := decodeBody(resp, &body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Breaker
	}
	livez := func() int {
		t.Helper()
		resp, err := http.Get(hs.URL + "/livez")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code, br := readyz(); code != http.StatusOK || br != "closed" {
		t.Fatalf("initial readyz = %d/%s, want 200/closed", code, br)
	}

	// Wedge every massage chunk with a panic and run queries until the
	// breaker trips. Each failure must be a typed contained panic, not
	// a process crash.
	restore := faultinject.Set(faultinject.MassageChunk, func() {
		panic("breaker_test: injected panic")
	})
	req := QueryRequest{Table: tbl.Name, Kind: "orderby", SortCols: []SortColReq{{Name: "l_returnflag"}}, Workers: 1}
	for i := 0; i < 3; i++ {
		_, err := srv.Run(context.Background(), req)
		if err == nil {
			restore()
			t.Fatal("panicking query succeeded")
		}
		var pe *pipeerr.PipelineError
		if !errors.As(err, &pe) {
			restore()
			t.Fatalf("contained panic error = %T %v, want *pipeerr.PipelineError", err, err)
		}
		if !strings.Contains(err.Error(), "injected panic") {
			restore()
			t.Fatalf("panic payload lost: %v", err)
		}
	}
	restore()

	// Tripped: readyz degrades, livez does not (the process is fine).
	if code, br := readyz(); code != http.StatusServiceUnavailable || br != "open" {
		t.Fatalf("tripped readyz = %d/%s, want 503/open", code, br)
	}
	if code := livez(); code != http.StatusOK {
		t.Fatalf("tripped livez = %d, want 200", code)
	}

	// Cooldown elapses: half-open counts as ready (readiness is
	// advisory; the server never stopped executing).
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, br := readyz()
		if code == http.StatusOK && br == "half-open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz stuck at %d/%s, want 200/half-open", code, br)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One clean query closes the breaker.
	if _, err := srv.Run(context.Background(), req); err != nil {
		t.Fatalf("recovery query: %v", err)
	}
	if code, br := readyz(); code != http.StatusOK || br != "closed" {
		t.Fatalf("recovered readyz = %d/%s, want 200/closed", code, br)
	}
}
