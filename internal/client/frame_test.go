package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/testutil"
)

// Offsets into a result frame (docs/serving.md has the layout): the
// five u64 block counts follow the 12-byte prefix, four i64 scalars and
// the flags byte.
const (
	frameCountsOff  = 12 + 4*8 + 1
	groupRowsOff    = frameCountsOff
	rowOidsCountOff = frameCountsOff + 4*8
)

// frameOf is res as the server frames it.
func frameOf(t *testing.T, res *server.QueryResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := server.WriteResultFrame(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bodyServer serves job "ok" as done and answers every result fetch
// with what body returns for that (1-based) fetch.
func bodyServer(t *testing.T, body func(w http.ResponseWriter, fetch int64)) (*fakeServer, *httptest.Server) {
	fs := &fakeServer{t: t}
	for i := 0; i < 8; i++ {
		fs.jobs = append(fs.jobs, fakeJob{id: "ok", status: server.JobStatus{ID: "ok", State: server.JobDone}})
	}
	jobs := fs.handler()
	var fetches atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			body(w, fetches.Add(1))
			return
		}
		jobs.ServeHTTP(w, r)
	}))
	return fs, hs
}

// TestRetryNeverOnBadFrame: a result body the client can never accept —
// over the response limit, wrong magic or version, inconsistent counts,
// a checksum mismatch, trailing bytes, not a frame at all — fails the
// query once, wrapping server.ErrBadFrame. Before the frame such a body
// surfaced as a JSON syntax error, which retryableErr called retryable:
// the identical query ran MaxRetries more times.
func TestRetryNeverOnBadFrame(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	valid := frameOf(t, &server.QueryResult{JobID: "ok", Table: "t", Rows: 3,
		Ranks: []uint32{1, 2, 2}, RowOids: []uint32{7, 8, 9}, Plan: "p", ColOrder: []int{0}})
	patched := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), valid...))
	}
	cases := []struct {
		name    string
		body    []byte
		ctype   string
		mention string // the error must say this
	}{
		{"over the response limit", patched(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[rowOidsCountOff:], 1<<40)
			return b
		}), server.ResultFrameType, strconv.Itoa(server.MaxResultBytes)},
		{"bad magic", patched(func(b []byte) []byte { b[0] ^= 0xff; return b }), server.ResultFrameType, "magic"},
		{"bad version", patched(func(b []byte) []byte { b[4] = 9; return b }), server.ResultFrameType, "version"},
		{"inconsistent counts", patched(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[groupRowsOff:], 3) // rows without columns
			return b
		}), server.ResultFrameType, "group keys"},
		{"checksum mismatch", patched(func(b []byte) []byte { b[len(b)-5] ^= 1; return b }), server.ResultFrameType, "checksum"},
		{"trailing bytes", patched(func(b []byte) []byte { return append(b, 0) }), server.ResultFrameType, "trailing"},
		{"not a frame", []byte(`{"table":"t","rows":3}`), "application/json", "Content-Type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, hs := bodyServer(t, func(w http.ResponseWriter, _ int64) {
				w.Header().Set("Content-Type", tc.ctype)
				w.Write(tc.body)
			})
			defer hs.Close()
			c := newClient(t, hs, nil)
			_, err := c.Query(context.Background(), okReq)
			if !errors.Is(err, server.ErrBadFrame) {
				t.Fatalf("error = %v, want one wrapping server.ErrBadFrame", err)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Errorf("error %q does not mention %q", err, tc.mention)
			}
			if got := fs.submits.Load(); got != 1 {
				t.Errorf("query executed %d times, want 1: a body that can never be accepted must not be retried", got)
			}
		})
	}
}

// TestRetryOnTruncatedFrame: a connection that drops mid-frame is the
// transport failure it always was — the query is retried and the second
// attempt's complete frame is the answer.
func TestRetryOnTruncatedFrame(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	want := &server.QueryResult{JobID: "ok", Table: "t", Rows: 2, Ranks: []uint32{1, 2}, RowOids: []uint32{4, 5}, Plan: "p"}
	frame := frameOf(t, want)
	fs, hs := bodyServer(t, func(w http.ResponseWriter, fetch int64) {
		w.Header().Set("Content-Type", server.ResultFrameType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		if fetch == 1 {
			// Short of its Content-Length: net/http drops the connection.
			w.Write(frame[:len(frame)/2])
			return
		}
		w.Write(frame)
	})
	defer hs.Close()
	c := newClient(t, hs, nil)
	res, err := c.Query(context.Background(), okReq)
	if err != nil {
		t.Fatalf("query: %v (a truncated frame must be retried)", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("result = %+v, want %+v", res, want)
	}
	if got := fs.submits.Load(); got != 2 {
		t.Errorf("query executed %d times, want 2 (one retry)", got)
	}
}
