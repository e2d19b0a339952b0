// The result frame: QueryResult's wire encoding, the one body of GET
// /jobs/{id}/result. WriteResultFrame and ReadResultFrame alone know the
// format (docs/serving.md has the byte-layout table):
//
//	magic "MCSR" · version u32 · header length u32
//	header: rows, workers, queue_wait_ns, exec_ns (i64 each) · flags u8 ·
//	        group_keys rows and columns, aggregates, ranks, row_oids
//	        element counts (u64 each) · col_order (u32 count, i64 each) ·
//	        job_id, table, plan (u32 length + bytes each)
//	blocks: group_keys row-major u64 · aggregates u64 · ranks u32 ·
//	        row_oids u32 — raw arrays, no padding
//	CRC-32C (Castagnoli) of every byte before it, u32
//
// Every integer is little-endian. The encoding is canonical — frame
// bytes are a pure function of the result, and a frame that decodes
// re-encodes to the same bytes. An empty data block decodes to a nil
// slice; col_order keeps its nil/[] distinction in a flag.
//
// On a little-endian host a data block's memory already holds its wire
// bytes, so blocks move as memory: the writer checksums and writes a
// block's own bytes, the reader reads straight into the block it
// allocates. A big-endian host converts each element through a staging
// chunk instead; the bytes are the same either way.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// ResultFrameType is the media type of the result frame, the
// Content-Type of every successful GET /jobs/{id}/result.
const ResultFrameType = "application/vnd.mcs.result-frame"

// MaxResultBytes is the response limit: the largest result body a
// client accepts (internal/client refuses a frame declaring more before
// allocating anything) and the result payload a Front retains for
// polling (front.go).
const MaxResultBytes = 64 << 20

// ErrBadFrame is wrapped by every failure of a result frame that was
// read but violates the format: wrong magic or version, an oversized or
// inconsistent header, declared sizes beyond the reader's limit, a
// checksum mismatch, trailing bytes. The same bytes would fail the same
// way again, so it is not retryable; a short read or I/O error is
// returned as it is and does not wrap it.
var ErrBadFrame = errors.New("server: bad result frame")

const (
	frameMagic   = "MCSR"
	frameVersion = 1
	// framePrefix is magic + version + header length.
	framePrefix = 12
	// frameFixedHeader is the header up to and including the col_order
	// count: four i64 scalars, the flags byte, five u64 block counts.
	frameFixedHeader = 4*8 + 1 + 5*8 + 4
	// maxFrameHeader bounds the header a reader buffers. Names are at
	// most MaxNameLen bytes and a plan renders a few bytes per column.
	maxFrameHeader = 1 << 16
	// frameChunk is the most a writer (or a big-endian host's reader)
	// stages at once; a frame smaller than it stages exactly its own
	// size.
	frameChunk = 1 << 16

	flagPlanCacheHit = 1 << 0
	flagColOrder     = 1 << 1 // col_order is non-nil
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether this host's integers are little-endian, so a
// block's memory is its wire bytes.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// u64Bytes and u32Bytes view a block's memory as bytes: its wire bytes
// when hostLE.
func u64Bytes(vs []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

func u32Bytes(vs []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs))
}

// keyCols is the group keys' column count, read off the first row;
// frameHead verifies the others match.
func (r *QueryResult) keyCols() int {
	if len(r.GroupKeys) == 0 {
		return 0
	}
	return len(r.GroupKeys[0])
}

// payloadBytes is the size of r's data blocks, the weight the job table
// charges a retained result.
func (r *QueryResult) payloadBytes() int64 {
	return 8*int64(len(r.GroupKeys))*int64(r.keyCols()) + 8*int64(len(r.Aggregates)) +
		4*int64(len(r.Ranks)) + 4*int64(len(r.RowOids))
}

// frameHead renders the prefix and header of res's frame, refusing a
// result the format cannot carry.
func frameHead(res *QueryResult) ([]byte, error) {
	cols := res.keyCols()
	if len(res.GroupKeys) > 0 && cols == 0 {
		return nil, errors.New("server: framing result: group keys have no columns")
	}
	for i, row := range res.GroupKeys {
		if len(row) != cols {
			return nil, fmt.Errorf("server: framing result: group key %d has %d columns, the first has %d", i, len(row), cols)
		}
	}
	var flags byte
	if res.PlanCacheHit {
		flags |= flagPlanCacheHit
	}
	if res.ColOrder != nil {
		flags |= flagColOrder
	}
	le := binary.LittleEndian
	b := make([]byte, framePrefix, 256)
	copy(b, frameMagic)
	le.PutUint32(b[4:], frameVersion)
	for _, v := range []uint64{uint64(res.Rows), uint64(res.Workers), uint64(res.QueueWaitNS), uint64(res.ExecNS)} {
		b = le.AppendUint64(b, v)
	}
	b = append(b, flags)
	for _, n := range []int{len(res.GroupKeys), cols, len(res.Aggregates), len(res.Ranks), len(res.RowOids)} {
		b = le.AppendUint64(b, uint64(n))
	}
	b = le.AppendUint32(b, uint32(len(res.ColOrder)))
	for _, c := range res.ColOrder {
		b = le.AppendUint64(b, uint64(c))
	}
	for _, s := range []string{res.JobID, res.Table, res.Plan} {
		b = le.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	if len(b)-framePrefix > maxFrameHeader {
		return nil, fmt.Errorf("server: framing result: header of %d bytes exceeds %d", len(b)-framePrefix, maxFrameHeader)
	}
	le.PutUint32(b[8:], uint32(len(b)-framePrefix))
	return b, nil
}

// frameWriter stages a frame through one chunk buffer, checksumming
// what it flushes; on a little-endian host a block too big for the
// buffer's free space is checksummed and written from its own memory.
// The first write error sticks.
type frameWriter struct {
	w      io.Writer
	buf    []byte // staged bytes; cap is the chunk size
	crc    uint32
	err    error
	memory bool // blocks are written as their memory: hostLE
}

func (fw *frameWriter) flush() {
	if fw.err == nil && len(fw.buf) > 0 {
		fw.crc = crc32.Update(fw.crc, castagnoli, fw.buf)
		_, fw.err = fw.w.Write(fw.buf)
	}
	fw.buf = fw.buf[:0]
}

// room returns the next stretch of the buffer to fill, at least need
// bytes long, flushing first when less is free; commit(n) keeps the n
// bytes written into it.
func (fw *frameWriter) room(need int) []byte {
	if cap(fw.buf)-len(fw.buf) < need {
		fw.flush()
	}
	return fw.buf[len(fw.buf):cap(fw.buf)]
}

func (fw *frameWriter) commit(n int) { fw.buf = fw.buf[:len(fw.buf)+n] }

// block writes a block's wire bytes b: appended to the buffer when they
// fit its free space, flushed or not, otherwise in one Write of their
// own after the buffer's.
func (fw *frameWriter) block(b []byte) {
	if cap(fw.buf)-len(fw.buf) < len(b) {
		fw.flush()
	}
	if cap(fw.buf)-len(fw.buf) >= len(b) {
		fw.buf = append(fw.buf, b...)
		return
	}
	if fw.err == nil {
		fw.crc = crc32.Update(fw.crc, castagnoli, b)
		_, fw.err = fw.w.Write(b)
	}
}

func (fw *frameWriter) u64s(vs []uint64) {
	if fw.memory {
		fw.block(u64Bytes(vs))
		return
	}
	for len(vs) > 0 {
		b := fw.room(8)
		n := min(len(vs), len(b)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		fw.commit(8 * n)
		vs = vs[n:]
	}
}

func (fw *frameWriter) u32s(vs []uint32) {
	if fw.memory {
		fw.block(u32Bytes(vs))
		return
	}
	for len(vs) > 0 {
		b := fw.room(4)
		n := min(len(vs), len(b)/4)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		fw.commit(4 * n)
		vs = vs[n:]
	}
}

// resultFrame is a result checked and measured for framing: the HTTP
// handler needs the size for Content-Length before the first byte.
type resultFrame struct {
	res  *QueryResult
	head []byte
}

func newResultFrame(res *QueryResult) (*resultFrame, error) {
	head, err := frameHead(res)
	if err != nil {
		return nil, err
	}
	return &resultFrame{res: res, head: head}, nil
}

// size is the exact length of the frame in bytes.
func (f *resultFrame) size() int64 { return int64(len(f.head)) + f.res.payloadBytes() + 4 }

func (f *resultFrame) writeTo(w io.Writer) error { return f.write(w, hostLE) }

// write writes the frame, its blocks as their memory or, when memory is
// false, converted element by element — the only way on a big-endian
// host.
func (f *resultFrame) write(w io.Writer, memory bool) error {
	fw := &frameWriter{w: w, buf: append(make([]byte, 0, min(f.size(), frameChunk)), f.head...), memory: memory}
	for _, row := range f.res.GroupKeys {
		fw.u64s(row)
	}
	fw.u64s(f.res.Aggregates)
	fw.u32s(f.res.Ranks)
	fw.u32s(f.res.RowOids)
	fw.flush()
	fw.buf = binary.LittleEndian.AppendUint32(fw.buf, fw.crc)
	if fw.err == nil {
		_, fw.err = w.Write(fw.buf)
	}
	if fw.err != nil {
		return fmt.Errorf("server: writing result frame: %w", fw.err)
	}
	return nil
}

// WriteResultFrame writes res to w as one result frame. A result the
// format cannot carry (ragged or zero-column group keys, an oversized
// header — nothing the engine produces) fails before any byte is
// written.
func WriteResultFrame(w io.Writer, res *QueryResult) error {
	f, err := newResultFrame(res)
	if err != nil {
		return err
	}
	return f.writeTo(w)
}

// frameReader reads a frame's bytes off r, checksumming them.
type frameReader struct {
	r      io.Reader
	buf    []byte // block staging chunk, unless memory
	crc    uint32
	memory bool // blocks are read into their memory: hostLE
}

// fill reads exactly len(p) bytes. The frame promised them, so running
// out is a truncated body — a transport failure — never a clean EOF.
func (fr *frameReader) fill(p []byte) error {
	if _, err := io.ReadFull(fr.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("server: reading result frame: %w", err)
	}
	fr.crc = crc32.Update(fr.crc, castagnoli, p)
	return nil
}

// u64s reads a block of n elements, allocated once at that size and,
// on a little-endian host, filled straight from r; an empty block is a
// nil slice.
func (fr *frameReader) u64s(n uint64) ([]uint64, error) {
	if n == 0 {
		return nil, nil
	}
	block := make([]uint64, n)
	if fr.memory {
		if err := fr.fill(u64Bytes(block)); err != nil {
			return nil, err
		}
		return block, nil
	}
	for dst := block; len(dst) > 0; {
		k := min(len(dst), len(fr.buf)/8)
		b := fr.buf[:8*k]
		if err := fr.fill(b); err != nil {
			return nil, err
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		dst = dst[k:]
	}
	return block, nil
}

func (fr *frameReader) u32s(n uint64) ([]uint32, error) {
	if n == 0 {
		return nil, nil
	}
	block := make([]uint32, n)
	if fr.memory {
		if err := fr.fill(u32Bytes(block)); err != nil {
			return nil, err
		}
		return block, nil
	}
	for dst := block; len(dst) > 0; {
		k := min(len(dst), len(fr.buf)/4)
		b := fr.buf[:4*k]
		if err := fr.fill(b); err != nil {
			return nil, err
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		dst = dst[k:]
	}
	return block, nil
}

// ReadResultFrame reads one result frame from r, which must end with
// it. limit bounds the whole frame: every declared count and their sum
// are checked against it before anything is allocated, each block is
// allocated once at its declared size (group keys as row slices into one
// flat block), and the checksum is verified before the result is
// returned. Format violations wrap ErrBadFrame;
// read failures, a truncated body included, are returned as they are.
func ReadResultFrame(r io.Reader, limit int64) (*QueryResult, error) {
	return readResultFrame(r, limit, hostLE)
}

// readResultFrame is ReadResultFrame reading its blocks into their
// memory or, when memory is false, converting them element by element
// from a staging chunk — the only way on a big-endian host.
func readResultFrame(r io.Reader, limit int64, memory bool) (*QueryResult, error) {
	bad := func(format string, args ...any) (*QueryResult, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
	}
	fr := &frameReader{r: r, memory: memory}
	var prefix [framePrefix]byte
	if err := fr.fill(prefix[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if string(prefix[:4]) != frameMagic {
		return bad("magic %q, want %q", prefix[:4], frameMagic)
	}
	if v := le.Uint32(prefix[4:]); v != frameVersion {
		return bad("version %d, want %d", v, frameVersion)
	}
	hlen := le.Uint32(prefix[8:])
	if hlen > maxFrameHeader {
		return bad("header of %d bytes exceeds %d", hlen, maxFrameHeader)
	}
	header := make([]byte, hlen)
	if err := fr.fill(header); err != nil {
		return nil, err
	}

	if hlen < frameFixedHeader {
		return bad("header of %d bytes is shorter than its %d fixed bytes", hlen, frameFixedHeader)
	}
	res := &QueryResult{
		Rows:        int(le.Uint64(header[0:])),
		Workers:     int(le.Uint64(header[8:])),
		QueueWaitNS: int64(le.Uint64(header[16:])),
		ExecNS:      int64(le.Uint64(header[24:])),
	}
	flags := header[32]
	if flags&^(flagPlanCacheHit|flagColOrder) != 0 {
		return bad("unknown flags %#x", flags)
	}
	res.PlanCacheHit = flags&flagPlanCacheHit != 0
	var counts [5]uint64 // group-key rows and columns, aggregates, ranks, row oids
	for i := range counts {
		counts[i] = le.Uint64(header[33+8*i:])
	}
	nOrder := uint64(le.Uint32(header[73:]))
	rest := header[frameFixedHeader:]
	if nOrder > uint64(len(rest))/8 {
		return bad("col_order of %d entries overruns the %d-byte header", nOrder, hlen)
	}
	if flags&flagColOrder != 0 {
		res.ColOrder = make([]int, nOrder)
		for i := range res.ColOrder {
			res.ColOrder[i] = int(le.Uint64(rest[8*i:]))
		}
	} else if nOrder != 0 {
		return bad("%d col_order entries without the col_order flag", nOrder)
	}
	rest = rest[8*nOrder:]
	for _, s := range []*string{&res.JobID, &res.Table, &res.Plan} {
		if len(rest) < 4 || uint64(le.Uint32(rest)) > uint64(len(rest)-4) {
			return bad("a string overruns the %d-byte header", hlen)
		}
		n := le.Uint32(rest)
		*s = string(rest[4 : 4+n])
		rest = rest[4+n:]
	}
	if len(rest) != 0 {
		return bad("%d unused bytes at the end of the header", len(rest))
	}

	// Sizes: nothing below allocates until the whole frame, as declared,
	// fits the limit.
	if limit < 0 {
		limit = 0
	}
	rows, cols := counts[0], counts[1]
	cells := rows * cols
	if (rows == 0) != (cols == 0) || (cols != 0 && cells/cols != rows) {
		return bad("group keys of %d rows by %d columns", rows, cols)
	}
	total := uint64(framePrefix) + uint64(hlen) + 4
	for _, blk := range [][2]uint64{{cells, 8}, {counts[2], 8}, {counts[3], 4}, {counts[4], 4}} {
		n, elem := blk[0], blk[1]
		if n > uint64(limit)/elem {
			return bad("a block of %d %d-byte elements exceeds the %d-byte response limit", n, elem, limit)
		}
		if total += n * elem; total > uint64(limit) {
			return bad("frame of at least %d bytes exceeds the %d-byte response limit", total, limit)
		}
	}

	if !memory {
		fr.buf = make([]byte, min(total, frameChunk)&^7) // total is at least a prefix and a fixed header
	}
	flat, err := fr.u64s(cells)
	if err == nil {
		res.Aggregates, err = fr.u64s(counts[2])
	}
	if err == nil {
		res.Ranks, err = fr.u32s(counts[3])
	}
	if err == nil {
		res.RowOids, err = fr.u32s(counts[4])
	}
	if err != nil {
		return nil, err
	}
	if rows > 0 {
		res.GroupKeys = make([][]uint64, rows)
		for i := range res.GroupKeys {
			res.GroupKeys[i] = flat[uint64(i)*cols : uint64(i+1)*cols : uint64(i+1)*cols]
		}
	}

	sum := fr.crc
	var trailer [4]byte
	if err := fr.fill(trailer[:]); err != nil {
		return nil, err
	}
	if got := le.Uint32(trailer[:]); got != sum {
		return bad("checksum %#08x, computed %#08x", got, sum)
	}
	switch n, err := io.ReadFull(r, trailer[:1]); {
	case n > 0:
		return bad("trailing bytes after the checksum")
	case err != io.EOF:
		return nil, fmt.Errorf("server: reading result frame: %w", err)
	}
	return res, nil
}
