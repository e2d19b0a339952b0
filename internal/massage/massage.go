// Package massage implements code massaging (Section 3 of the paper):
// manipulating the bits across the columns to be sorted so the bits are
// repartitioned into new round keys. Stitching merges columns into one
// key; bit-borrowing moves bits between adjacent columns. By Lemma 1,
// any repartition of the concatenation C₁‖C₂‖…‖C_m preserves the
// lexicographic sort order, so a plan is free to choose round boundaries
// anywhere.
//
// The massaging process itself is the paper's four-instruction program
// (FIP) — shift, mask, bitwise-or, shift — executed once per segment of
// the union of input/output prefix-sum boundaries; the access pattern is
// sequential and branchless, so it is cheap relative to sorting. Over a
// ByteSlice-backed column a segment reads only the byte planes its bits
// lie in, and no code is decoded whole.
package massage

import (
	"context"
	"fmt"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Massage observability: stitch/borrow structure at compile time, FIP
// invocations and bytes moved at run time. All writes are no-ops until
// obs.Enable(); the runtime counters are bumped once per row range
// (never inside the per-row loop).
var (
	obsCompiles    = obs.NewCounter("massage.compiles")
	obsSegments    = obs.NewCounter("massage.segments_compiled")
	obsStitchOps   = obs.NewCounter("massage.stitch_ops")
	obsBorrowOps   = obs.NewCounter("massage.borrow_ops")
	obsFIPOps      = obs.NewCounter("massage.fip_ops")
	obsBytesMoved  = obs.NewCounter("massage.bytes_moved")
	obsParEffX1000 = obs.NewGauge("massage.parallel_efficiency_x1000")
)

// Input describes one sort column: its codes, width, and direction.
// Desc columns are complemented before stitching (Figure 5 of the
// paper), which converts a descending order requirement into the uniform
// ascending order the sorter implements. The codes are Codes, or, when
// Source is set, a ByteSlice whose planes every pass reads a segment's
// bits from (byteslice.BS.OrBits), so a sort never builds a code array
// for them (late materialisation, docs/topk.md). Width must then be the
// ByteSlice's.
type Input struct {
	Codes  []uint64
	Width  int
	Desc   bool
	Source *Source
}

// Source is where a late-materialised input's codes live: input row i
// is row Rows[i] of Column, or row i when Rows is nil (a selection of
// every row, in order, names none). The massage reads its planes at
// those rows; the other readers of a column read its codes through it:
// a range of the selection (Range: the sort's carried payload, a wide
// aggregate) or the selection rows at sorted positions (At).
type Source struct {
	Column *byteslice.BS
	Rows   []uint32
}

// Range sets dst[j] to the code of selection row lo+j: a contiguous
// plane decode when the selection is every row.
func (s *Source) Range(dst []uint64, lo int) {
	if s.Rows == nil {
		s.Column.Decode(dst, lo)
		return
	}
	s.Column.Gather(dst, s.Rows[lo:lo+len(dst)])
}

// At sets dst[j] to the code of selection row pos[j], mapping the
// positions to row ids in ids (scratch of at least len(pos)) when the
// selection has a row list.
func (s *Source) At(dst []uint64, pos, ids []uint32) {
	if s.Rows != nil {
		ids = ids[:len(pos)]
		for j, p := range pos {
			ids[j] = s.Rows[p]
		}
		pos = ids
	}
	s.Column.Gather(dst, pos)
}

// Len is the input's row count.
func (in Input) Len() int {
	switch {
	case in.Source == nil:
		return len(in.Codes)
	case in.Source.Rows == nil:
		return in.Source.Column.N
	}
	return len(in.Source.Rows)
}

// segment is one contiguous bit range of the concatenation that maps
// from a single source column into a single round key; executing it is
// one FIP invocation.
type segment struct {
	src      int    // source column index
	dst      int    // destination round index
	srcShift uint   // right-shift applied to the source code
	dstShift uint   // left-shift applied before OR-ing into the key
	mask     uint64 // width mask after the source shift
	// flip is mask for a DESC column, 0 otherwise: complementing the
	// whole column and then extracting the segment equals extracting and
	// then complementing within the mask.
	flip uint64
	// bits is the segment compiled for a Source input: the planes its
	// bit range covers, with the same shifts, mask and flip.
	bits byteslice.Bits
	// planes is the number of planes bits covers: a row of a Source
	// input reads one byte of each.
	planes int
}

// Program is a compiled massage plan: the segments to execute per row.
type Program struct {
	segments []segment
	nRounds  int
}

// Compile builds the FIP program that reshapes the inputs' columns into
// round keys with widths outWidths. Both partitions must cover the same
// total bit width.
func Compile(inputs []Input, outWidths []int) (*Program, error) {
	inWidths := make([]int, len(inputs))
	totalIn := 0
	for i, in := range inputs {
		if in.Width < 1 || in.Width > 64 {
			return nil, fmt.Errorf("massage: input %d width %d out of range", i, in.Width)
		}
		if in.Source != nil && in.Source.Column.Width != in.Width {
			return nil, fmt.Errorf("massage: input %d width %d, its column's %d", i, in.Width, in.Source.Column.Width)
		}
		inWidths[i] = in.Width
		totalIn += in.Width
	}
	totalOut := 0
	for i, w := range outWidths {
		if w < 1 || w > 64 {
			return nil, fmt.Errorf("massage: round %d width %d out of range", i, w)
		}
		totalOut += w
	}
	if totalIn != totalOut {
		return nil, fmt.Errorf("massage: input bits %d != output bits %d", totalIn, totalOut)
	}

	// Bit positions count from the most-significant end of the
	// concatenation: column i spans concat bits [inLo[i], inLo[i]+w).
	inLo := prefixStarts(inWidths)
	outLo := prefixStarts(outWidths)

	// Each source column contributes to at most two adjacent rounds and
	// vice versa, so the segment count is bounded by the column counts.
	segs := make([]segment, 0, len(inWidths)+len(outWidths))
	for d, ow := range outWidths {
		// Walk the source columns overlapping round d's range.
		dLo, dHi := outLo[d], outLo[d]+ow
		for s, iw := range inWidths {
			sLo, sHi := inLo[s], inLo[s]+iw
			lo, hi := max(dLo, sLo), min(dHi, sHi)
			if lo >= hi {
				continue
			}
			// Within source column s, the segment covers local bits
			// counted from the MSB side: [lo-sLo, hi-sLo). The code is
			// right-aligned, so the right-shift is the bits below it.
			sg := segment{
				src:      s,
				dst:      d,
				srcShift: uint(sHi - hi),
				dstShift: uint(dHi - hi),
				mask:     column.Mask(hi - lo),
			}
			if inputs[s].Desc {
				sg.flip = sg.mask
			}
			sg.bits = byteslice.NewBits(lo-sLo, hi-sLo, sg.dstShift, inputs[s].Desc)
			sg.planes = sg.bits.Planes()
			segs = append(segs, sg)
		}
	}
	obsCompiles.Inc()
	obsSegments.Add(int64(len(segs)))
	// Every round and every column has a segment. Stitches: a round fed
	// by s columns merged s-1 of them; borrows: a column split across d
	// rounds lent bits d-1 times.
	obsStitchOps.Add(int64(len(segs) - len(outWidths)))
	obsBorrowOps.Add(int64(len(segs) - len(inputs)))
	return &Program{segments: segs, nRounds: len(outWidths)}, nil
}

func prefixStarts(widths []int) []int {
	starts := make([]int, len(widths))
	s := 0
	for i, w := range widths {
		starts[i] = s
		s += w
	}
	return starts
}

// FIPCount returns the number of four-instruction-program invocations
// the compiled program executes per row. It always equals the paper's
// I_FIP (the union of the two prefix-sum sequences); the property test
// asserts this.
func (p *Program) FIPCount() int { return len(p.segments) }

// decodeBlock is the number of positions Decode inverts at a time:
// their codes (up to 8 B per column each) stay in L1 while every
// segment ORs its bits into them.
const decodeBlock = 512

// Decode inverts the program at the positions pos of the round keys
// (keys[d][i] is round d's key at position i): dst[k·m + cols[c]], m =
// len(cols), gets input c's code at position pos[k], so a row of dst
// holds one position's codes in the order cols names — a sort run in
// another column order decodes straight into clause order. Every
// segment runs in reverse, moving its bits from the round key back to
// their column, and a DESC column's bits are complemented back; it
// runs over a block of decodeBlock positions before the next segment
// starts, so the block's codes are read and written in cache, not per
// position. By Lemma 1 the round keys are the concatenation C₁‖…‖C_m
// cut into rounds, so a row's sorted keys alone give back its sort
// columns. dst[:len(pos)·m] is overwritten. The shift counts are
// masked so that no over-shift guard is compiled in.
func (p *Program) Decode(keys [][]uint64, pos []int32, cols []int, dst []uint64) {
	m := len(cols)
	for lo := 0; lo < len(pos); lo += decodeBlock {
		block := pos[lo:min(lo+decodeBlock, len(pos))]
		out := dst[lo*m : (lo+len(block))*m]
		clear(out)
		for k := range p.segments {
			sg := &p.segments[k]
			src, col := keys[sg.dst], cols[sg.src]
			dstShift, srcShift, mask, flip := sg.dstShift, sg.srcShift, sg.mask, sg.flip
			for j, i := range block {
				out[j*m+col] |= (src[i]>>(dstShift&63)&mask ^ flip) << (srcShift & 63)
			}
		}
	}
}

// parallelMinRows is the row count below which a pass runs
// sequentially whatever the worker count: a FIP pass over fewer rows
// finishes faster than the goroutine handoff.
const parallelMinRows = 1024

// chunkAlign aligns parallel chunk boundaries to whole 64-byte cache
// lines of the uint64 key arrays, so no two workers' read-modify-write
// streams (dst[i] |= …) share a line.
const chunkAlign = 8

// forEachChunk is the one pass under every entry point: run(lo, hi) is
// called over disjoint row ranges covering [0, rows) by the pipeline's
// pass driver (Section 3: each thread massages partitions from every
// column independently). Every range fires the MassageChunk fault
// site; a failure surfaces with stage "massage" and the given round (-1
// for the all-rounds pass). The massage.parallel_efficiency_x1000 gauge
// reports how busy the workers collectively were when tracing is on.
func forEachChunk(ctx context.Context, rows, workers, round int, run func(lo, hi int)) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageMassage, Round: round, Site: faultinject.MassageChunk, Align: chunkAlign, MinRows: parallelMinRows}
	if pass.Parallel(rows, workers) {
		pass.Busy = pipeerr.StartBusy(workers)
	}
	if err := pass.Rows(ctx, rows, workers, run); err != nil {
		return err
	}
	pass.Busy.Publish(obsParEffX1000)
	return nil
}

// RunParallelContext massages the input columns into one key array per
// round, partitioning the rows across workers goroutines (workers < 2
// runs on the caller's). Rows is the row count; all inputs must have at
// least that many rows. On error the partially massaged keys are
// discarded.
func (p *Program) RunParallelContext(ctx context.Context, inputs []Input, rows, workers int) ([][]uint64, error) {
	out := make([][]uint64, p.nRounds)
	for d := range out {
		out[d] = make([]uint64, rows)
	}
	if err := forEachChunk(ctx, rows, workers, -1, func(lo, hi int) { runBlocks(p.segments, inputs, out, nil, lo, hi) }); err != nil {
		return nil, err
	}
	return out, nil
}

// gatherBlock is the row count runBlocks massages at a time: a block
// of every round key a pass writes (8 KiB each) stays in L1 while the
// pass's segments OR their bits into it.
const gatherBlock = 1024

// runBlocks is the one row loop of every pass: it runs segs over rows
// [lo, hi) — or, when perm is non-nil, over positions [lo, hi) of perm,
// out[d][i] getting row perm[i]'s bits — gatherBlock rows at a time. A
// segment of a Source input ORs its bits into the block's keys straight
// from the byte planes it covers (byteslice.BS.OrBits), at the block's
// rows: contiguous from the block's start, or the row ids its positions
// map to, mapped once per block and row list for all of the block's
// segments. A segment of a materialised input runs runRange over the
// block of its codes: a window without perm, a copy through perm into
// a buffer with it. The buffers are allocated once per range, never
// per block.
func runBlocks(segs []segment, inputs []Input, out [][]uint64, perm []uint32, lo, hi int) {
	countFIPs(segs, inputs, hi-lo)
	size := min(gatherBlock, hi-lo)
	read := make([]bool, len(inputs)) // some segment reads the materialised input
	var bufs [][]uint64               // under perm, a materialised input's block
	var ids []uint32                  // under perm, a block's positions mapped through a row list
	if perm != nil {
		bufs = make([][]uint64, len(inputs))
	}
	for i := range segs {
		s := segs[i].src
		switch src := inputs[s].Source; {
		case src == nil:
			read[s] = true
			if perm != nil && bufs[s] == nil {
				bufs[s] = make([]uint64, size)
			}
		case perm != nil && src.Rows != nil && ids == nil:
			ids = make([]uint32, size)
		}
	}
	codes := make([][]uint64, len(inputs)) // the block's codes per materialised input
	for blo := lo; blo < hi; blo += gatherBlock {
		bhi := min(blo+gatherBlock, hi)
		for s, in := range inputs {
			switch {
			case !read[s]:
			case perm == nil:
				codes[s] = in.Codes[blo:bhi]
			default:
				buf := bufs[s][:bhi-blo]
				for j, p := range perm[blo:bhi] {
					buf[j] = in.Codes[p]
				}
				codes[s] = buf
			}
		}
		var mapped []uint32 // the row list ids holds this block's rows of
		for i := range segs {
			sg := &segs[i]
			keys := out[sg.dst][blo:bhi]
			src := inputs[sg.src].Source
			switch {
			case src == nil:
				runRange(sg, codes[sg.src], keys)
			case perm == nil && src.Rows == nil:
				src.Column.OrBits(keys, nil, blo, &sg.bits)
			case perm == nil:
				src.Column.OrBits(keys, src.Rows[blo:bhi], 0, &sg.bits)
			case src.Rows == nil:
				src.Column.OrBits(keys, perm[blo:bhi], 0, &sg.bits)
			default:
				if !sameRows(mapped, src.Rows) {
					mapped = src.Rows
					ids = ids[:bhi-blo]
					for j, p := range perm[blo:bhi] {
						ids[j] = mapped[p]
					}
				}
				src.Column.OrBits(keys, ids, 0, &sg.bits)
			}
		}
	}
}

// sameRows reports whether a and b are the same row list.
func sameRows(a, b []uint32) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// runRange is the FIP kernel over a materialised block: it ORs seg's
// bits of the codes into the keys. The loop is sequential and
// branch-free, matching the paper's characterization of the massaging
// cost.
func runRange(seg *segment, codes, keys []uint64) {
	codes = codes[:len(keys)]
	srcShift, dstShift, mask, flip := seg.srcShift, seg.dstShift, seg.mask, seg.flip
	for i, c := range codes {
		keys[i] |= (c>>srcShift&mask ^ flip) << dstShift
	}
}

// countFIPs books one range's FIP invocations and bytes moved: per
// row, each segment read-modify-writes one uint64 key (8 B) and reads
// its bits, one uint64 code (8 B) of a materialised input or one byte
// per plane it covers of a Source input.
func countFIPs(segs []segment, inputs []Input, rows int) {
	if rows <= 0 {
		return
	}
	perRow := 0
	for i := range segs {
		if inputs[segs[i].src].Source != nil {
			perRow += 8 + segs[i].planes
		} else {
			perRow += 16
		}
	}
	obsFIPOps.Add(int64(len(segs)) * int64(rows))
	obsBytesMoved.Add(int64(perRow) * int64(rows))
}
