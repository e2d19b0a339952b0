package experiments

// Cost-model calibration (Section 4 of the paper): controlled runs on
// this machine whose timings are solved for the constants of
// costmodel.Model (Calibrate) and of the paper kernel's term, paper.Model
// (CalibratePaper). The radix terms, which price every production plan,
// are solved from seeded runs of the production kernel (no Params.Sort
// hook): segmented radix sorts over banks, key widths and group counts,
// the top-K select, and the insertion sorts below its cutoff. The paper
// term's per-bank constants and OVC discount, which the figures plug in
// (Config.model), are solved from runs of paperKernel. The truncated
// first round's ByteSlice gather is solved against the same round over
// materialized codes.
// costmodel.Builtin freezes the median of nine runs of Calibrate.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/hw"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/plan"
)

// CalOptions tunes the calibration runs.
type CalOptions struct {
	// NCal is the array size of the controlled experiments. The paper
	// uses 100× the LLC; we default to a size that keeps calibration
	// under a few seconds and scale the lookup experiment separately.
	NCal int
	// Seed makes calibration deterministic for tests.
	Seed int64
}

func (o *CalOptions) defaults() {
	if o.NCal == 0 {
		o.NCal = 1 << 16
	}
	if o.Seed == 0 {
		o.Seed = 20160626 // SIGMOD'16 opening day
	}
}

// Calibrate measures the machine and returns a ready-to-use model: the
// constants production reads, and no paper-kernel term (CalibratePaper).
// The process follows Section 4: each constant (or identifiable group of
// constants) is solved from controlled runs, the sort constants as
// least-squares linear systems over runs with varying group counts and
// key widths. An error means a calibration workload could not be
// compiled or sorted — a library bug surfaced to the caller instead of
// a panic. Calibration is not cancellable: its sorts run under
// context.Background(), with the production kernel.
func Calibrate(opts CalOptions) (*costmodel.Model, error) {
	opts.defaults()
	caches := hw.Detect()
	m := &costmodel.Model{L2: caches.L2, LLC: caches.LLC}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Lookup, massage and scan are timed at 8·NCal rows (2^19 by
	// default), the table size the sort kernels meet in queries.
	m.C.CCache, m.C.CMem = calibrateLookup(rng, 8*opts.NCal, caches.LLC)
	var err error
	if err = calibrateExecute(rng, 8*opts.NCal, m); err != nil {
		return nil, err
	}
	if err = calibrateRadix(rng, opts.NCal, m); err != nil {
		return nil, err
	}
	if m.C.Select, err = calibrateSelect(rng, opts.NCal, m); err != nil {
		return nil, err
	}
	if m.C.SmallCall, m.C.SmallElem, m.C.SmallQuad, err = calibrateSmall(rng, opts.NCal); err != nil {
		return nil, err
	}
	if m.C.CGatherPlane, err = calibrateGather(rng, 8*opts.NCal); err != nil {
		return nil, err
	}
	return m, nil
}

// CalibratePaper measures the paper kernel's term on this machine: its
// per-bank constants and its OVC merge discount, solved from sorts and
// merges run with paperKernel under context.Background(). The small-sort
// regime it shares with the radix kernel, and the M_L2 its out-of-cache
// passes are counted against, are those of the costmodel.Model it is
// plugged into.
func CalibratePaper(opts CalOptions) (*paper.Model, error) {
	opts.defaults()
	l2 := hw.Detect().L2
	rng := rand.New(rand.NewSource(opts.Seed))
	pm := &paper.Model{Bank: make(map[int]paper.BankConstants)}
	var err error
	for _, bank := range mergesort.Banks {
		if pm.Bank[bank], err = calibrateBank(rng, opts.NCal, bank, l2); err != nil {
			return nil, err
		}
	}
	if pm.OVCMergeDiscount, err = calibrateOVCDiscount(rng, opts.NCal); err != nil {
		return nil, err
	}
	return pm, nil
}

// calibrateGather solves C_gather-plane from the first round of
// truncated sorts as queries run it: the round massaged from
// ByteSlice-backed inputs over a filtered selection of n of 2n rows,
// less the same round over the selection's materialized codes, per row
// per byte plane of the source columns — fastest of five runs each, over
// rounds of two to seven planes. Noise below zero clamps to 0.
func calibrateGather(rng *rand.Rand, n int) (float64, error) {
	sel := make([]uint32, n)
	for i := range sel {
		sel[i] = uint32(2*i + rng.Intn(2))
	}
	var extra, rowPlanes float64
	for _, widths := range [][]int{{6, 7}, {14, 11}, {20, 3}, {33, 9, 17}} {
		src := make([]massage.Input, len(widths))
		mat := make([]massage.Input, len(widths))
		total, planes := 0, 0
		for c, w := range widths {
			bs := byteslice.FromColumn(datagen.Uniform(rng, 2*n, w, min(1<<13, 1<<w)))
			codes := make([]uint64, n)
			bs.Gather(codes, sel)
			src[c] = massage.Input{Width: w, Source: &massage.Source{Column: bs, Rows: sel}}
			mat[c] = massage.Input{Codes: codes, Width: w}
			total, planes = total+w, planes+(w+7)/8
		}
		prog, err := massage.Compile(mat, []int{total})
		if err != nil {
			return 0, fmt.Errorf("calibrateGather: %w", err)
		}
		fastest := func(inputs []massage.Input) (float64, error) {
			best := 0.0
			for rep := 0; rep < 5; rep++ {
				start := time.Now()
				if _, err := prog.RunRoundParallelContext(context.Background(), inputs, n, 0, 1); err != nil {
					return 0, fmt.Errorf("calibrateGather: %w", err)
				}
				if t := float64(time.Since(start).Nanoseconds()); rep == 0 || t < best {
					best = t
				}
			}
			return best, nil
		}
		tSrc, err := fastest(src)
		if err != nil {
			return 0, err
		}
		tMat, err := fastest(mat)
		if err != nil {
			return 0, err
		}
		extra += tSrc - tMat
		rowPlanes += float64(n * planes)
	}
	return max(extra/rowPlanes, 0), nil
}

// calibrateOVCDiscount measures how much cheaper the offset-value-coded
// multiway merge gets on all-duplicate input relative to unique input:
// the discount applied to the out-of-cache term at duplicate fraction 1
// (paper.Model.Sort). Both runs pay the same pack/unpack overhead, so the
// measured ratio understates the pure merge saving — a conservative
// discount. Clamped to [0, 0.9]: even an all-ties merge keeps its data
// movement.
func calibrateOVCDiscount(rng *rand.Rand, n int) (float64, error) {
	const runsK = 8
	if n < runsK*64 {
		n = runsK * 64
	}
	runs := make([]int, runsK+1)
	for r := 0; r <= runsK; r++ {
		runs[r] = n * r / runsK
	}
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	kernel := *paperKernel()

	measure := func(gen func(i int) uint64) (float64, error) {
		base := make([]uint64, n)
		baseO := make([]uint32, n)
		for i := range base {
			base[i] = gen(i)
			baseO[i] = uint32(i)
		}
		for r := 0; r+1 < len(runs); r++ {
			if err := mergesort.SortScratchContext(context.Background(), 32, base[runs[r]:runs[r+1]], baseO[runs[r]:runs[r+1]], kernel, nil); err != nil {
				return 0, fmt.Errorf("calibrateOVCDiscount: %w", err)
			}
		}
		best := 0.0
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			copy(keys, base)
			copy(oids, baseO)
			start := time.Now()
			if err := paper.MergePacked(context.Background(), 32, keys, oids, runs, paper.Params{}); err != nil {
				return 0, fmt.Errorf("calibrateOVCDiscount: %w", err)
			}
			if el := float64(time.Since(start).Nanoseconds()); best == 0 || el < best {
				best = el
			}
		}
		return best, nil
	}

	mask := column.Mask(32)
	tUnique, err := measure(func(int) uint64 { return rng.Uint64() & mask })
	if err != nil {
		return 0, err
	}
	tDup, err := measure(func(int) uint64 { return 42 })
	if err != nil {
		return 0, err
	}
	if tUnique <= 0 {
		return 0, nil
	}
	return min(max(1-tDup/tUnique, 0), 0.9), nil
}

// calibrateSmall measures the small-sort regime: runs below the
// kernels' insertion cutoffs are insertion-sorted
// (mergesort.InsertionSort under both kernels), so their cost is a
// per-call constant plus linear and quadratic per-element terms, fitted
// from segmented sorts at sizes up to the radix kernel's cutoff.
func calibrateSmall(rng *rand.Rand, n int) (call, elem, quad float64, err error) {
	keys := make([]uint64, n)
	oids := make([]uint32, n)
	var rows [][]float64
	var ts []float64
	for _, size := range []int{2, 3, 5, 8, 12, 16, 20, 24, 32, 40, 48, 56, mergesort.SmallRunCutoff - 1} {
		g := n / size
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			for i := range keys {
				keys[i] = rng.Uint64() & ((1 << 20) - 1)
				oids[i] = uint32(i)
			}
			start := time.Now()
			for s := 0; s < g; s++ {
				lo := s * size
				if err := mergesort.SortScratchContext(context.Background(), 32, keys[lo:lo+size], oids[lo:lo+size], mergesort.Params{}, nil); err != nil {
					return 0, 0, 0, fmt.Errorf("calibrateSmall: %w", err)
				}
			}
			if t := float64(time.Since(start).Nanoseconds()) / float64(g); rep == 0 || t < best {
				best = t
			}
		}
		rows = append(rows, []float64{1 / best, float64(size) / best, float64(size*size) / best})
		ts = append(ts, 1)
	}
	sol := leastSquares(rows, ts) // relative error: each size weighted by 1/T
	call, elem, quad = max(sol[0], 0), max(sol[1], 0), max(sol[2], 0)
	if call == 0 && elem == 0 && quad == 0 {
		elem = 20 // degenerate measurement; any small positive slope works
	}
	return call, elem, quad, nil
}

// radixCalWidths are the key widths of the radix calibration runs, per
// bank: from none to bank/8 live digits (width 0 is all-equal keys,
// which only the counting sweep reads).
var radixCalWidths = map[int][]int{16: {0, 8, 16}, 32: {0, 8, 18, 24, 32}, 64: {0, 16, 32, 48, 64}}

// calibrateRadix solves the radix kernel's constants as one
// least-squares system over production-kernel sorts (no Params.Sort
// hook) of uniform keys. Per bank and key width: n rows cut into 1, 16,
// 256 and 1,024 groups, and single sorts of 2n to 8n rows, on one shared
// scratch, as a later round's group sorts run; and the same single sorts
// again allocating their scratch, as a first round's sort does — so the
// scatter is timed on both sides of M_L2, on pairs (bank 64, and groups
// below mergesort.PackMinRows rows) and on packed words (banks 16
// and 32 from there on), apart from the cost of fresh scratch. A run of
// G calls of N/G rows whose layout (mergesort.LayoutOf) has H
// histograms and D live digits of b bits takes (costmodel.Model.TRadix)
// T = G·D·2^b/256·RadixOffsets + N·(RadixCount + H·RadixCountHist) +
// N·(D·hit·S + width/8·(1−hit)·S_mem)
// [+ N·B/24·RadixAlloc when the sort allocates its B bytes a row of
// scratch], where S and S_mem are RadixScatter and RadixScatterMem on
// pairs, RadixWordScatter and RadixWordScatterMem on words, and hit =
// min(1, M_L2/(R·N/G)) for the R bytes a row a scatter streams. The
// system is solved for relative error, each run weighted by 1/T.
func calibrateRadix(rng *rand.Rand, n int, m *costmodel.Model) error {
	var rows [][]float64
	var ts []float64
	var s mergesort.Scratch
	type run struct {
		rows, groups int
		fresh        bool // allocate the scratch, do not share s
	}
	runs := []run{{n, 1, false}, {n, 16, false}, {n, 256, false}, {n, 1024, false}}
	for _, size := range []int{2 * n, 4 * n, 8 * n} {
		runs = append(runs, run{size, 1, false}, run{size, 1, true})
	}
	for _, bank := range mergesort.Banks {
		for _, width := range radixCalWidths[bank] {
			for _, run := range runs {
				keys := make([]uint64, run.rows)
				oids := make([]uint32, run.rows)
				base := make([]uint64, run.rows)
				for i := range base {
					base[i] = rng.Uint64() & column.Mask(width)
				}
				per := run.rows / run.groups
				scratch := &s
				best := 0.0
				for rep := 0; rep < 5; rep++ {
					copy(keys, base)
					for i := range oids {
						oids[i] = uint32(i)
					}
					if run.fresh {
						scratch = nil
					}
					start := time.Now()
					for g := 0; g < run.groups; g++ {
						lo := g * per
						if err := mergesort.SortScratchContext(context.Background(), bank, keys[lo:lo+per], oids[lo:lo+per], mergesort.Params{}, scratch); err != nil {
							return fmt.Errorf("calibrateRadix %d/%d: %w", width, bank, err)
						}
					}
					if t := float64(time.Since(start).Nanoseconds()); rep == 0 || t < best {
						best = t
					}
				}
				l := mergesort.LayoutOf(float64(per), bank, width)
				d, rn := float64(l.Digits), float64(per*run.groups)
				hit := min(float64(m.L2)/(l.RowBytes*float64(per)), 1)
				alloc := 0.0
				if run.fresh && width > 0 {
					alloc = rn * l.ScratchBytes / 24
				}
				in, mem := rn*d*hit, rn*float64(width)/8*(1-hit)
				row := []float64{float64(run.groups) * d * float64(int(1)<<l.Bits) / 256, rn, rn * float64(l.Hists), in, mem, 0, 0, alloc}
				if l.Packed {
					row[3], row[4], row[5], row[6] = 0, 0, in, mem
				}
				for j := range row {
					row[j] /= best
				}
				rows = append(rows, row)
				ts = append(ts, 1)
			}
		}
	}
	sol := leastSquares(rows, ts)
	c := &m.C
	c.RadixOffsets, c.RadixCount, c.RadixCountHist = max(sol[0], 0), sol[1], max(sol[2], 0)
	c.RadixScatter, c.RadixScatterMem = sol[3], max(sol[4], 0)
	c.RadixWordScatter, c.RadixWordScatterMem, c.RadixAlloc = sol[5], max(sol[6], 0), max(sol[7], 0)
	if c.RadixCount <= 0 || c.RadixScatter <= 0 || c.RadixWordScatter <= 0 {
		return fmt.Errorf("calibrateRadix: degenerate fit %v", sol)
	}
	return nil
}

// calibrateSelect solves the top-K sort's per-row select constant from
// production-kernel top-K sorts of uniform keys at limit 100 — one
// select pass each, and two for a key that leaves the bank's top digit
// empty — after subtracting the radix term of the survivor sort.
func calibrateSelect(rng *rand.Rand, n int, m *costmodel.Model) (float64, error) {
	const limit = 100
	var work, rowPasses float64
	for _, run := range []struct{ rows, bank, width int }{{n, 32, 32}, {8 * n, 32, 32}, {8 * n, 64, 48}, {8 * n, 16, 16}} {
		keys := make([]uint64, run.rows)
		oids := make([]uint32, run.rows)
		base := make([]uint64, run.rows)
		for i := range base {
			base[i] = rng.Uint64() & column.Mask(run.width)
		}
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			copy(keys, base)
			for i := range oids {
				oids[i] = uint32(i)
			}
			start := time.Now()
			if _, err := mergesort.TopKContext(context.Background(), run.bank, keys, oids, limit, mergesort.Params{}, 1); err != nil {
				return 0, fmt.Errorf("calibrateSelect: %w", err)
			}
			if t := float64(time.Since(start).Nanoseconds()); rep == 0 || t < best {
				best = t
			}
		}
		passes := 1.0
		if run.width <= run.bank-mergesort.SelectDigitBits {
			passes++
		}
		kept := limit + float64(run.rows)/float64(uint64(1)<<min(mergesort.SelectDigitBits, run.width))
		work += best - m.TRadix(kept, run.bank, run.width) - m.C.RadixAlloc*kept*mergesort.LayoutOf(kept, run.bank, run.width).ScratchBytes/24
		rowPasses += float64(run.rows) * passes
	}
	if work <= 0 {
		return 0, fmt.Errorf("calibrateSelect: survivor sorts outweigh the select (%v ns)", work)
	}
	return work / rowPasses, nil
}

// calibrateLookup measures C_cache and C_mem by running the lookup
// procedure (a gather of 64-bit codes through a random permutation, as
// mcsort's lookup pass runs it) at nBase rows and at an affordable
// footprint far beyond it, and solving the 2×2 system of Equation 3 for
// their cache-hit ratios. When the LLC exceeds what we can afford to
// exceed, both runs count as cached and the system is singular; C_cache
// is then the nBase run, the regime queries run in, and C_mem the large
// one, the best available estimate of a miss.
func calibrateLookup(rng *rand.Rand, nBase int, llc int64) (cCache, cMem float64) {
	const w = 32 // calibration column width
	sz := int64(column.Size(w))

	measure := func(n int) float64 {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() & column.Mask(w)
		}
		perm := rng.Perm(n)
		out := make([]uint64, n)
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i, p := range perm {
				out[i] = codes[p]
			}
			if el := float64(time.Since(start).Nanoseconds()) / float64(n); rep == 0 || el < best {
				best = el
			}
		}
		return best
	}

	hitRatio := func(n int) float64 {
		return min(float64(llc)/(float64(n)*float64(sz)), 1)
	}

	const maxN = 1 << 23 // 8 Mi codes: the affordability bound
	n1, n2 := nBase, max(maxN, 2*nBase)
	t1, t2 := measure(n1), measure(n2)
	h1, h2 := hitRatio(n1), hitRatio(n2)
	det := h1*(1-h2) - h2*(1-h1)
	if det < 0.05 && det > -0.05 {
		return t1, max(t2, t1)
	}
	// Solve [h 1-h][cCache cMem]ᵀ = t for the two runs.
	cCache = (t1*(1-h2) - t2*(1-h1)) / det
	cMem = (h1*t2 - h2*t1) / det
	if cCache <= 0 {
		cCache = t1
	}
	if cMem <= cCache {
		cMem = max(t2, cCache)
	}
	return cCache, cMem
}

// calibrateExecute fits C_massage, C_massage-key, C_scan, C_scan-group
// and C_cache against the phases of seeded multi-column sorts run as
// queries run them (mcsort.ExecuteContext, production kernel, one
// worker) over the paper's synthetic columns of Examples Ex1–Ex4, each
// plan's fastest of five runs: the massage as a least-squares fit over
// FIP invocations × rows and round keys × rows; the scan over rounds ×
// rows and the group boundaries its rounds emit; and the lookup's
// cached share, once its misses are priced at the C_mem calibrateLookup
// measured, over its cached rows. The fits are solved for relative
// error, each plan weighted by 1/T.
func calibrateExecute(rng *rand.Rand, n int, m *costmodel.Model) error {
	cases := []struct {
		in    []int
		plans []plan.Plan
	}{
		{[]int{10, 17}, []plan.Plan{plan.FromWidths([]int{10, 17}), plan.FromWidths([]int{27})}},         // Ex1
		{[]int{15, 31}, []plan.Plan{plan.FromWidths([]int{15, 31}), plan.FromWidths([]int{46})}},         // Ex2
		{[]int{17, 33}, []plan.Plan{plan.FromWidths([]int{17, 33}), plan.FromWidths([]int{18, 32})}},     // Ex3
		{[]int{48, 48}, []plan.Plan{plan.FromWidths([]int{48, 48}), plan.FromWidths([]int{32, 32, 32})}}, // Ex4
	}
	var massageFit, scanFit [][]float64 // per plan: the regressors over the phase's time
	var ones []float64
	var lookupNS, hitRows, missRows float64
	for _, c := range cases {
		inputs := make([]massage.Input, len(c.in))
		for i, w := range c.in {
			inputs[i] = massage.Input{Codes: datagen.Uniform(rng, n, w, min(1<<13, 1<<w)).Codes, Width: w}
		}
		for _, p := range c.plans {
			var best mcsort.Timings
			groups := 0
			for rep := 0; rep < 5; rep++ {
				res, err := mcsort.ExecuteContext(context.Background(), inputs, p, mcsort.Options{})
				if err != nil {
					return fmt.Errorf("calibrateExecute: %w", err)
				}
				if rep == 0 || res.Timings.Total() < best.Total() {
					best = res.Timings
				}
				groups = 0
				for _, r := range res.Rounds {
					groups += r.NGroup
				}
			}
			t := float64(best.Massage)
			massageFit = append(massageFit, []float64{float64(plan.IFIP(c.in, p.Widths())*n) / t, float64(len(p.Rounds)*n) / t})
			t = float64(best.Scan)
			scanFit = append(scanFit, []float64{float64(len(p.Rounds)*n) / t, float64(groups) / t})
			ones = append(ones, 1)
			lookupNS += float64(best.Lookup)
			for _, r := range p.Rounds[1:] {
				hit := min(float64(m.LLC)/(float64(n)*float64(column.Size(r.Width))), 1)
				hitRows += hit * float64(n)
				missRows += (1 - hit) * float64(n)
			}
		}
	}
	sol := leastSquares(massageFit, ones)
	m.C.CMassage, m.C.CMassageKey = max(sol[0], 0), max(sol[1], 0)
	sol = leastSquares(scanFit, ones)
	m.C.CScan, m.C.CScanGroup = max(sol[0], 0), max(sol[1], 0)
	if cached := lookupNS - m.C.CMem*missRows; hitRows > 0 && cached > 0 {
		m.C.CCache = cached / hitRows
	}
	return nil
}

// calibrateBank solves C_overhead, CLinear and C_out-of-cache for one
// bank as a least-squares system over segmented sorts with group counts
// 1, 4, 16, …: T = G·C_overhead + N·CLinear + (Σ n_g·passes(n_g))·C_ooc,
// the passes counted against an l2-byte M_L2.
func calibrateBank(rng *rand.Rand, n, bank int, l2 int64) (paper.BankConstants, error) {
	var rows [][]float64
	var ts []float64
	kernel := *paperKernel()

	runOnce := func(nRun, g int) error {
		mask := column.Mask(bank)
		keys := make([]uint64, nRun)
		for i := range keys {
			keys[i] = rng.Uint64() & mask
		}
		oids := make([]uint32, nRun)
		for i := range oids {
			oids[i] = uint32(i)
		}
		per := nRun / g
		start := time.Now()
		for s := 0; s < g; s++ {
			lo := s * per
			hi := lo + per
			if s == g-1 {
				hi = nRun
			}
			if err := mergesort.SortScratchContext(context.Background(), bank, keys[lo:hi], oids[lo:hi], kernel, nil); err != nil {
				return fmt.Errorf("calibrateBank %d: %w", bank, err)
			}
		}
		t := float64(time.Since(start).Nanoseconds())
		passes := paper.OutOfCachePasses(l2, float64(per), bank)
		rows = append(rows, []float64{float64(g), float64(nRun), float64(nRun) * passes})
		ts = append(ts, t)
		return nil
	}

	for g := 1; g <= n/64; g *= 4 {
		if err := runOnce(n, g); err != nil {
			return paper.BankConstants{}, err
		}
	}
	// Two runs large enough to exceed half the L2 cache, so the
	// out-of-cache constant has a non-zero regressor.
	big := max(int(l2)/(bank/8+4)*2, 2*n)
	if err := runOnce(big, 1); err != nil {
		return paper.BankConstants{}, err
	}
	if err := runOnce(big*4, 1); err != nil {
		return paper.BankConstants{}, err
	}

	sol := leastSquares(rows, ts)
	bc := paper.BankConstants{COverhead: sol[0], CLinear: sol[1], COutOfCache: sol[2]}
	// Guard against small negative solutions from measurement noise.
	bc.COverhead, bc.CLinear = max(bc.COverhead, 0), max(bc.CLinear, 1e-3)
	if bc.COutOfCache <= 0 {
		bc.COutOfCache = bc.CLinear * 0.25
	}
	return bc, nil
}

// leastSquares solves min ‖A·x − b‖ for len(a[0]) unknowns via the
// normal equations and Gaussian elimination with partial pivoting. A
// degenerate direction is left at zero.
func leastSquares(a [][]float64, b []float64) []float64 {
	k := len(a[0])
	ata := make([][]float64, k) // augmented [AᵀA | Aᵀb]
	for i := range ata {
		ata[i] = make([]float64, k+1)
	}
	for r, row := range a {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][k] += row[i] * b[r]
		}
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[piv][col]) {
				piv = r
			}
		}
		ata[col], ata[piv] = ata[piv], ata[col]
		if math.Abs(ata[col][col]) < 1e-12 {
			continue
		}
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := ata[r][col] / ata[col][col]
			for j := col; j <= k; j++ {
				ata[r][j] -= f * ata[col][j]
			}
		}
	}
	x := make([]float64, k)
	for i := range x {
		if math.Abs(ata[i][i]) > 1e-12 {
			x[i] = ata[i][k] / ata[i][i]
		}
	}
	return x
}
