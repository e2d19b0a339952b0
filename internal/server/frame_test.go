package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// frameBytes is res as WriteResultFrame renders it.
func frameBytes(t testing.TB, res *QueryResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResultFrame(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameSamples are the result shapes the engine produces, plus the
// empty ones: a ranked window, a group table, a LIMIT 0 (row count, no
// data, nil col_order), and a zero-match result whose data slices are
// empty rather than nil.
func frameSamples() map[string]*QueryResult {
	return map[string]*QueryResult{
		"window": {JobID: "j7", Table: "tpch_wide", Rows: 5, Workers: 4,
			Ranks: []uint32{1, 1, 3, 1, 2}, RowOids: []uint32{4, 0, 2, 3, 1},
			Plan: "[17|9+8]", ColOrder: []int{1, 0, 2}, PlanCacheHit: true, QueueWaitNS: 1200, ExecNS: 88000},
		"group": {JobID: "j8", Table: "t", Rows: 9,
			GroupKeys:  [][]uint64{{0, 3}, {1, 0}, {1<<63 + 5, 2}},
			Aggregates: []uint64{4, 3, ^uint64(0)},
			Plan:       "[12]", ColOrder: []int{0, 1}, ExecNS: 5},
		"limit0": {JobID: "j9", Table: "t", Rows: 1501, Workers: 1, Plan: "[]"},
		"empty": {Table: "t", GroupKeys: [][]uint64{}, Aggregates: []uint64{},
			Ranks: []uint32{}, RowOids: []uint32{}, Plan: "[3]", ColOrder: []int{}},
	}
}

// corpusSeed is the byte string of one committed FuzzResultFrame seed.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzResultFrame", "seed_"+name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	b, err := strconv.Unquote(strings.TrimSuffix(lit, ")\n"))
	if !ok || err != nil {
		t.Fatalf("seed %s is not a one-[]byte corpus file: %v", name, err)
	}
	return []byte(b)
}

// TestResultFrameRoundTrip: for every result shape the frame decodes to
// the result itself, except that an empty data block decodes to nil
// (col_order keeps nil versus []); its bytes are a pure function of the
// result — the ones committed as the fuzz seed of that shape — its
// length is the size the handler declares as Content-Length, and a
// limit one byte short refuses it.
func TestResultFrameRoundTrip(t *testing.T) {
	for name, res := range frameSamples() {
		t.Run(name, func(t *testing.T) {
			frame := frameBytes(t, res)
			if again := frameBytes(t, res); !bytes.Equal(frame, again) {
				t.Error("two encodings of one result differ")
			}
			fr, err := newResultFrame(res)
			if err != nil {
				t.Fatal(err)
			}
			if fr.size() != int64(len(frame)) {
				t.Errorf("size() = %d, the frame has %d bytes", fr.size(), len(frame))
			}
			if golden := corpusSeed(t, "valid_"+name); !bytes.Equal(frame, golden) {
				t.Errorf("frame differs from the committed seed — a format change needs a new version:\n got %x\nwant %x", frame, golden)
			}
			got, err := ReadResultFrame(bytes.NewReader(frame), int64(len(frame)))
			if err != nil {
				t.Fatal(err)
			}
			want := *res
			if len(want.GroupKeys) == 0 {
				want.GroupKeys, want.Aggregates = nil, nil
			}
			if len(want.RowOids) == 0 {
				want.Ranks, want.RowOids = nil, nil
			}
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("frame decodes to\n%#v\nwant\n%#v", got, &want)
			}
			if _, err := ReadResultFrame(bytes.NewReader(frame), int64(len(frame))-1); !errors.Is(err, ErrBadFrame) {
				t.Errorf("limit one byte short: err = %v, want ErrBadFrame", err)
			}
		})
	}
	for name, res := range map[string]*QueryResult{
		"ragged group keys":      {GroupKeys: [][]uint64{{1, 2}, {3}}, Aggregates: []uint64{1, 1}},
		"zero-column group keys": {GroupKeys: [][]uint64{{}, {}}, Aggregates: []uint64{1, 1}},
		"oversized header":       {Plan: string(make([]byte, maxFrameHeader))},
	} {
		var buf bytes.Buffer
		if err := WriteResultFrame(&buf, res); err == nil || buf.Len() != 0 {
			t.Errorf("%s: err = %v with %d bytes written, want a refusal before the first byte", name, err, buf.Len())
		}
	}
}

// refFrame encodes res as docs/serving.md lays the frame out, every
// integer appended with binary.LittleEndian, sharing no code with
// frameWriter.
func refFrame(res *QueryResult) []byte {
	le := binary.LittleEndian
	var h []byte
	for _, v := range []int64{int64(res.Rows), int64(res.Workers), res.QueueWaitNS, res.ExecNS} {
		h = le.AppendUint64(h, uint64(v))
	}
	var flags byte
	if res.PlanCacheHit {
		flags |= 1
	}
	if res.ColOrder != nil {
		flags |= 2
	}
	h = append(h, flags)
	cols := 0
	if len(res.GroupKeys) > 0 {
		cols = len(res.GroupKeys[0])
	}
	for _, n := range []int{len(res.GroupKeys), cols, len(res.Aggregates), len(res.Ranks), len(res.RowOids)} {
		h = le.AppendUint64(h, uint64(n))
	}
	h = le.AppendUint32(h, uint32(len(res.ColOrder)))
	for _, c := range res.ColOrder {
		h = le.AppendUint64(h, uint64(c))
	}
	for _, s := range []string{res.JobID, res.Table, res.Plan} {
		h = le.AppendUint32(h, uint32(len(s)))
		h = append(h, s...)
	}
	b := le.AppendUint32(le.AppendUint32([]byte("MCSR"), 1), uint32(len(h)))
	b = append(b, h...)
	for _, row := range res.GroupKeys {
		for _, v := range row {
			b = le.AppendUint64(b, v)
		}
	}
	for _, v := range res.Aggregates {
		b = le.AppendUint64(b, v)
	}
	for _, vs := range [][]uint32{res.Ranks, res.RowOids} {
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
	}
	return le.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// trickleReader returns 1 to 7 bytes per Read, so that every block
// fill takes many reads.
type trickleReader struct {
	b     []byte
	reads int
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p[:min(len(p), r.reads%7+1)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// writeCounter counts the Write calls a frame takes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// blockSamples are results whose blocks meet the writer's staging
// buffer every way: smaller than its free space, exactly frameChunk
// bytes, one element more, and many small group-key rows that fill it
// over and over; and the 2^19-row window result shard3_window_full
// moves.
func blockSamples() map[string]*QueryResult {
	seq32 := func(n int, mul uint32) []uint32 {
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = uint32(i)*mul + 0x01020304
		}
		return vs
	}
	seq64 := func(n int) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}
		return vs
	}
	groups := func(rows, cols int) ([][]uint64, []uint64) {
		flat := seq64(rows * cols)
		keys := make([][]uint64, rows)
		for i := range keys {
			keys[i] = flat[i*cols : (i+1)*cols]
		}
		return keys, seq64(rows)
	}
	const chunk32, chunk64 = frameChunk / 4, frameChunk / 8
	out := map[string]*QueryResult{
		"oids smaller than free space": {Table: "t", Rows: 900, Ranks: seq32(900, 3), RowOids: seq32(900, 7), Plan: "[9]", ColOrder: []int{0}},
		"oids of exactly one chunk":    {Table: "t", Rows: chunk32, Ranks: seq32(chunk32, 3), RowOids: seq32(chunk32, 7), Plan: "[9]"},
		"oids one element over":        {Table: "t", Rows: chunk32 + 1, Ranks: seq32(chunk32+1, 3), RowOids: seq32(chunk32+1, 7), Plan: "[9]"},
		"window 2^19":                  benchWindowResult(),
	}
	for name, shape := range map[string][2]int{
		"aggregates of exactly one chunk": {chunk64, 1},
		"many small group rows":           {5000, 3},
	} {
		res := &QueryResult{Table: "t", Rows: shape[0], Plan: "[5|6]", ColOrder: []int{1, 0}}
		res.GroupKeys, res.Aggregates = groups(shape[0], shape[1])
		out[name] = res
	}
	return out
}

// TestResultFrameMatchesReferenceEncoder pins the frame bytes against
// refFrame, an encoder written apart from the frame writer, for every
// frame sample and every block-size sample, writing blocks as their
// memory (a little-endian host) and converting them element by element
// (what a big-endian host does). Each frame decodes, both ways, from a
// reader returning 1 to 7 bytes per Read, to its result.
func TestResultFrameMatchesReferenceEncoder(t *testing.T) {
	samples := blockSamples()
	for name, res := range frameSamples() {
		samples[name] = res
	}
	for name, res := range samples {
		want := refFrame(res)
		decoded := *res
		if len(decoded.GroupKeys) == 0 {
			decoded.GroupKeys, decoded.Aggregates = nil, nil
		}
		if len(decoded.RowOids) == 0 {
			decoded.Ranks, decoded.RowOids = nil, nil
		}
		for _, memory := range []bool{true, false} {
			f, err := newResultFrame(res)
			if err != nil {
				t.Fatal(err)
			}
			var w writeCounter
			if err := f.write(&w, memory); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("%s, memory=%v: %d frame bytes differ from the reference encoder's %d", name, memory, w.Len(), len(want))
			}
			// Head, ranks, oids and checksum: each block past the buffer
			// goes out in one Write of its own.
			if name == "window 2^19" && memory && w.writes != 4 {
				t.Errorf("%s: %d Writes, want 4", name, w.writes)
			}
			got, err := readResultFrame(&trickleReader{b: want}, int64(len(want)), memory)
			if err != nil {
				t.Fatalf("%s, memory=%v: %v", name, memory, err)
			}
			if !reflect.DeepEqual(got, &decoded) {
				t.Errorf("%s, memory=%v: frame decodes to a different result", name, memory)
			}
		}
	}
}

// countingReader counts the bytes a decoder consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// Offsets of the block counts in a frame: after the 12-byte prefix, the
// four i64 scalars and the flags byte.
const (
	testCountsOff = framePrefix + 4*8 + 1
	testRanksOff  = testCountsOff + 3*8
)

// frameCorruptions are the ways a frame goes wrong, each applied to a
// valid frame: the first group is read whole and violates the format
// (ErrBadFrame), the second runs out of bytes (a transport failure).
func frameCorruptions() (bad, short map[string]func([]byte) []byte) {
	put64 := func(off int, v uint64) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }
	}
	bad = map[string]func([]byte) []byte{
		"bad magic":         func(b []byte) []byte { b[1] ^= 0x20; return b },
		"wrong version":     func(b []byte) []byte { b[4]++; return b },
		"header over bound": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], maxFrameHeader+1); return b },
		"header too short":  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], frameFixedHeader-1); return b },
		"unknown flag":      func(b []byte) []byte { b[framePrefix+32] |= 0x80; return b },
		"count inflated":    put64(testRanksOff, 1<<28), // 1 GiB of ranks
		"count overflows":   put64(testRanksOff, 1<<62),
		"rows without cols": put64(testCountsOff, 7),
		"keys overflow":     func(b []byte) []byte { return put64(testCountsOff+8, 1<<40)(put64(testCountsOff, 1<<40)(b)) },
		// The window sample's job_id length follows its three col_order entries.
		"string overruns": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[framePrefix+frameFixedHeader+3*8:], 1<<20)
			return b
		},
		"payload bit flip":    func(b []byte) []byte { b[len(b)-5] ^= 4; return b },
		"checksum bit flip":   func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"trailing byte":       func(b []byte) []byte { return append(b, 0) },
		"two frames in one":   func(b []byte) []byte { return append(b, b...) },
		"col_order unflagged": func(b []byte) []byte { b[framePrefix+32] &^= flagColOrder; return b },
	}
	short = map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return b[:0] },
		"mid prefix":       func(b []byte) []byte { return b[:7] },
		"mid header":       func(b []byte) []byte { return b[:framePrefix+20] },
		"mid payload":      func(b []byte) []byte { return b[:len(b)-9] },
		"missing checksum": func(b []byte) []byte { return b[:len(b)-4] },
		"mid checksum":     func(b []byte) []byte { return b[:len(b)-1] },
	}
	return bad, short
}

// TestResultFrameRejects pins which failures are ErrBadFrame and which
// are read errors, and that a frame declaring more than the limit is
// refused having read no further than its header.
func TestResultFrameRejects(t *testing.T) {
	valid := frameBytes(t, frameSamples()["window"])
	bad, short := frameCorruptions()
	for name, corrupt := range bad {
		in := corrupt(append([]byte(nil), valid...))
		cr := &countingReader{r: bytes.NewReader(in)}
		res, err := ReadResultFrame(cr, MaxResultBytes)
		if res != nil || !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: result %v, err %v; want ErrBadFrame", name, res, err)
		}
		if header := framePrefix + int(binary.LittleEndian.Uint32(valid[8:])); name == "count inflated" && cr.n > header {
			t.Errorf("%s: decoder consumed %d bytes, the header ends at %d: refused after reading payload", name, cr.n, header)
		}
	}
	for name, cut := range short {
		res, err := ReadResultFrame(bytes.NewReader(cut(append([]byte(nil), valid...))), MaxResultBytes)
		if res != nil || err == nil || errors.Is(err, ErrBadFrame) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: result %v, err %v; want an unexpected-EOF read error that is not ErrBadFrame", name, res, err)
		}
	}
	ioErr := errors.New("connection reset")
	if _, err := ReadResultFrame(io.MultiReader(bytes.NewReader(valid[:30]), errReader{ioErr}), MaxResultBytes); !errors.Is(err, ioErr) || errors.Is(err, ErrBadFrame) {
		t.Errorf("I/O error mid-frame: err = %v, want it passed through", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// resultFromRecipe derives a canonical result — no data block empty but
// non-nil, so a frame round trip leaves it unchanged — from fuzz bytes:
// shape bits pick the blocks and the col_order form (nil, [] or
// entries), the rest feed sizes and values.
func resultFromRecipe(data []byte) *QueryResult {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return uint64(b)
	}
	wide := func() uint64 { return next()<<56 | next()<<24 | next() }
	shape := next()
	res := &QueryResult{
		JobID:        fmt.Sprintf("j%d", next()),
		Table:        fmt.Sprintf("t%d", next()),
		Rows:         int(wide() >> 8),
		Workers:      int(next() % 9),
		Plan:         fmt.Sprintf("[%d|%d]", next(), next()),
		PlanCacheHit: shape&1 != 0,
		QueueWaitNS:  int64(wide() >> 1),
		ExecNS:       int64(next()),
	}
	switch shape >> 1 & 3 {
	case 1:
		res.ColOrder = []int{}
	case 2, 3:
		for i := next() % 5; i > 0; i-- {
			res.ColOrder = append(res.ColOrder, int(next()%16))
		}
	}
	if shape&8 != 0 {
		n, m := int(next()%40), int(next()%4)+1
		for i := 0; i < n; i++ {
			row := make([]uint64, m)
			for c := range row {
				row[c] = wide()
			}
			res.GroupKeys = append(res.GroupKeys, row)
			res.Aggregates = append(res.Aggregates, wide())
		}
	}
	if shape&16 != 0 {
		for i := int(next()); i > 0; i-- {
			res.Ranks = append(res.Ranks, uint32(wide()))
			res.RowOids = append(res.RowOids, uint32(wide()>>24))
		}
	}
	return res
}

// FuzzResultFrame fuzzes the frame decoder — the client's and the
// coordinator's trust boundary. Properties: arbitrary bytes never panic
// and fail typed or decode; whatever decodes re-encodes to the very
// bytes it came from (the encoding is canonical) and is refused, having
// read no payload, under a limit one byte short of it; and for a result
// generated from the same bytes, decode ∘ encode is the identity,
// col_order's nil versus [] included.
func FuzzResultFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 20
		if res, err := ReadResultFrame(bytes.NewReader(data), limit); err == nil {
			if again := frameBytes(t, res); !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-encodes differently:\n in: %x\nout: %x", data, again)
			}
			cr := &countingReader{r: bytes.NewReader(data)}
			header := framePrefix + int(binary.LittleEndian.Uint32(data[8:]))
			if _, err := ReadResultFrame(cr, int64(len(data))-1); !errors.Is(err, ErrBadFrame) || cr.n > header {
				t.Fatalf("limit one byte short: err %v after %d bytes (header ends at %d), want ErrBadFrame before the payload", err, cr.n, header)
			}
		} else if res != nil {
			t.Fatal("ReadResultFrame returned both a result and an error")
		}

		res := resultFromRecipe(data)
		frame := frameBytes(t, res)
		got, err := ReadResultFrame(bytes.NewReader(frame), limit)
		if err != nil {
			t.Fatalf("generated result's frame rejected: %v", err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("decode(encode(r)) != r:\n got %#v\nwant %#v", got, res)
		}
	})
}

// benchWindowResult is a 2^19-row window result, the body
// shard3_window_full moves.
func benchWindowResult() *QueryResult {
	const n = 1 << 19
	res := &QueryResult{JobID: "j1", Table: "tpch_wide", Rows: n, Workers: 2, Plan: "[17|9+8]", ColOrder: []int{0, 1, 2},
		Ranks: make([]uint32, n), RowOids: make([]uint32, n)}
	for i := range res.Ranks {
		res.Ranks[i] = uint32(i%977 + 1)
		res.RowOids[i] = uint32((i * 7919) % n)
	}
	return res
}

var benchSink *QueryResult

func BenchmarkResultFrameEncode(b *testing.B) {
	res := benchWindowResult()
	b.SetBytes(int64(len(frameBytes(b, res))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteResultFrame(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultFrameDecode(b *testing.B) {
	frame := frameBytes(b, benchWindowResult())
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ReadResultFrame(bytes.NewReader(frame), MaxResultBytes)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}
