package costmodel

import (
	"math"

	"repro/internal/obs"
	"repro/internal/plan"
)

var obsProfiles = obs.NewCounter("costmodel.profiles_built")

// Profile is the cost model bound to one column order: everything the
// round terms need of (model, stats), tabulated per prefix length
// bits ∈ [0, W], so costing a plan is array arithmetic. A plan search
// costs thousands of plans per order and every one asks the same ≤ W+1
// questions of the statistics; asking them per plan was 5/6 of the
// search. Rows and memos fill on first use — a search its stopwatch ends
// after a few candidates pays only for the prefixes it asked about — so
// a Profile is not safe for concurrent use; it is per-search scratch,
// dropped with the search.
type Profile struct {
	m       *Model
	st      Stats
	w       int   // total width W
	limited bool  // LimitRows or LimitGroups set: deferred, truncated execution
	colOf   []int // colOf[b] = input column holding bit b of the concatenation

	// Indexed by bits, the number of leading bits already sorted; read
	// through row(). dup −1 = row not computed yet.
	dup   []float64 // duplicate fraction of the bits-bit prefix
	surv  []float64 // rows surviving truncation at group boundaries
	calls []float64 // SIMD-sort calls of the next round (N_sort); 0 = none
	avg   []float64 // rows per call

	// after[bankSlot][bits] memoises TSortAfter(bits, bank); −1 = not
	// computed yet.
	after [3][]float64
}

// bankSlot is bank's index in plan.Banks; −1 for a bank no plan may use.
func bankSlot(bank int) int {
	switch bank {
	case 16:
		return 0
	case 32:
		return 1
	case 64:
		return 2
	}
	return -1
}

// Profile binds the model to st's column order.
func (m *Model) Profile(st Stats) *Profile {
	obsProfiles.Inc()
	w := st.TotalWidth()
	pf := &Profile{m: m, st: st, w: w,
		limited: st.LimitRows > 0 || st.LimitGroups > 0, colOf: make([]int, 0, w)}
	for i, c := range st.Cols {
		for b := 0; b < c.Width; b++ {
			pf.colOf = append(pf.colOf, i)
		}
	}
	tables := make([]float64, 7*(w+1))
	for i := range tables {
		tables[i] = -1
	}
	take := func() []float64 {
		t := tables[: w+1 : w+1]
		tables = tables[w+1:]
		return t
	}
	pf.dup, pf.surv, pf.calls, pf.avg = take(), take(), take(), take()
	for s := range pf.after {
		pf.after[s] = take()
	}
	return pf
}

// row clamps a prefix length to [0, W] — every table is constant beyond
// it (no bits sorted below 0, all of them above W) — and fills that row
// of the tables if this is its first use.
func (pf *Profile) row(bits int) int {
	bits = pf.at(bits)
	if pf.dup[bits] >= 0 {
		return bits
	}
	st, n := pf.st, float64(pf.st.N)
	p := st.distinctOfPrefix(bits)
	pf.dup[bits] = dupFrac(n, p)
	nGroup, nSort, rows := groupProfile(n, p)
	surv := n
	if pf.limited && bits > 0 && st.N > 0 {
		surv = survivors(st, nGroup)
	}
	pf.surv[bits] = surv
	pf.calls[bits] = 0
	if nSort < 1 {
		return bits // the next round has nothing to sort
	}
	// Truncated executions only sort the groups that survive the cut:
	// scale the group population by the surviving-row fraction.
	if scale := surv / n; scale < 1 {
		nSort *= scale
		rows *= scale
		if nSort < 1 {
			nSort = 1
		}
	}
	pf.calls[bits], pf.avg[bits] = nSort, rows/nSort
	return bits
}

// dupFrac estimates the duplicate fraction of a key prefix with p
// distinct values over n rows: 1 − p/n, clamped to [0, 1]. It is the
// dup-fraction regressor of the OVC merge discount — rows sharing a full
// round key resolve their merge comparisons on codes alone.
func dupFrac(n, p float64) float64 {
	if n <= 0 {
		return 0
	}
	f := 1 - p/n
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// groupProfile estimates, for n rows grouped by a key prefix with p
// distinct values: the expected number of groups, the number of groups
// of size ≥ 2 (which is N_sort of the next round), and the number of
// rows belonging to those non-singleton groups. It uses the classic
// occupancy model: n rows drawn over p equally likely combinations.
func groupProfile(n, p float64) (nGroup, nSort, rowsInSorts float64) {
	if p <= 1 {
		return 1, 1, n
	}
	// E[#occupied cells] and E[#singletons].
	q := 1.0 - 1.0/p
	occupied := p * (1 - math.Pow(q, n))
	singles := n * math.Pow(q, n-1)
	if occupied > n {
		occupied = n
	}
	if singles > n {
		singles = n
	}
	nGroup = occupied
	nSort = occupied - singles
	if nSort < 0 {
		nSort = 0
	}
	rowsInSorts = n - singles
	if rowsInSorts < 0 {
		rowsInSorts = 0
	}
	return nGroup, nSort, rowsInSorts
}

// survivors estimates how many rows remain in the pipeline after
// truncation at group boundaries once a prefix forming nGroup groups is
// sorted: the rank target plus the expected boundary group (LimitRows —
// the cut is tie-extended) or the expected rows of the first LimitGroups
// groups (LimitGroups), clamped to [1, N].
func survivors(st Stats, nGroup float64) float64 {
	n := float64(st.N)
	if nGroup < 1 {
		nGroup = 1
	}
	avg := n / nGroup
	var v float64
	if st.LimitRows > 0 {
		v = float64(st.LimitRows) + avg
	} else {
		v = float64(st.LimitGroups) * avg
	}
	if v > n {
		v = n
	}
	if v < 1 {
		v = 1
	}
	return v
}

// at clamps a bit position to [0, W].
func (pf *Profile) at(bits int) int {
	if bits < 0 {
		return 0
	}
	if bits > pf.w {
		return pf.w
	}
	return bits
}

// TSortAfter estimates the summed SIMD-sort cost of a round that uses a
// b-bit bank after bitsBefore bits have already been sorted: Equation 1
// over the group profile those bits induce. This is the quantity the
// greedy plan search minimizes when assigning bits to a round; since
// the round width is not fixed yet, the duplicate fraction uses the
// widest key the bank could hold as a surrogate. bank is one of
// plan.Banks.
func (pf *Profile) TSortAfter(bitsBefore, bank int) float64 {
	memo := &pf.after[bankSlot(bank)][pf.at(bitsBefore)]
	if *memo < 0 {
		*memo = pf.tSortAfterWidth(bitsBefore, min(pf.w-bitsBefore, bank), bank)
	}
	return *memo
}

// tSortAfterWidth is TSortAfter with the round's actual key width, so
// the duplicate fraction covers exactly the bits this round sorts. The
// fraction is taken over all rows (not only rows in non-singleton
// groups) — an approximation that errs toward less discount, since
// singleton rows are globally unique.
func (pf *Profile) tSortAfterWidth(bitsBefore, width, bank int) float64 {
	dup := pf.dup[pf.row(bitsBefore+width)]
	if bitsBefore <= 0 {
		if n := pf.st.N; pf.st.LimitRows > 0 && n > 0 {
			// Round 1 of a row-truncated query is the top-K sort: the radix
			// select streams all N rows to find and compact the cut (the
			// scan constant: no new calibrated constant, so the model
			// fingerprint is unchanged), plus a sort of only the survivors.
			// This teaches ROGA that wide stitched first rounds are nearly
			// free under small K — the sort term collapses — so massaging
			// pays only via its own upfront cost.
			if surv := pf.surv[pf.row(width)]; surv < float64(n) {
				return pf.m.TScan(n) + pf.m.TSortOneDup(surv, bank, dup)
			}
		}
		return pf.m.TSortOneDup(float64(pf.st.N), bank, dup)
	}
	i := pf.row(bitsBefore)
	if pf.calls[i] < 1 {
		return 0
	}
	return pf.calls[i] * pf.m.TSortOneDup(pf.avg[i], bank, dup)
}

// roundFIPs is the number of input columns a round key over bits
// [lo, lo+width) draws from: the four-instruction programs that build it.
func (pf *Profile) roundFIPs(lo, width int) int {
	hi := pf.at(lo + width)
	lo = pf.at(lo)
	if lo >= hi {
		return 0
	}
	return pf.colOf[hi-1] - pf.colOf[lo] + 1
}

// TMCS estimates the total multi-column sorting time of plan p, which
// must cover the profile's W bits: massage upfront, then per round a
// lookup (rounds ≥ 2), the SIMD-sorts, and a group-extraction scan.
// Truncated stats (LimitRows/LimitGroups > 0) model the deferred
// execution instead: massage is paid per round — in full for round 1,
// then only over the surviving prefix — and the lookup and scan passes
// shrink with the survivors, which is what makes massaging rarely pay
// below small K (the upfront FIP work no longer amortizes over cheap
// later rounds).
//
// incumbent is the estimate to beat. Every term is ≥ 0, so the running
// sum is a lower bound of the total in floating point too; once it
// reaches incumbent the plan cannot win and TMCS returns the partial
// sum (≥ incumbent) with complete = false. Pass +Inf to cost in full.
func (pf *Profile) TMCS(p plan.Plan, incumbent float64) (est float64, complete bool) {
	m := pf.m
	t := 0.0
	if !pf.limited {
		iFIP, lo := 0, 0
		for _, r := range p.Rounds {
			iFIP += pf.roundFIPs(lo, r.Width)
			lo += r.Width
		}
		t = m.TMassage(iFIP, pf.st.N)
	}
	bitsBefore := 0
	for k, r := range p.Rounds {
		if t >= incumbent {
			return t, false
		}
		surv := pf.st.N
		if pf.limited {
			if k > 0 {
				surv = int(pf.surv[pf.row(bitsBefore)])
			}
			t += m.TMassage(pf.roundFIPs(bitsBefore, r.Width), surv)
		}
		if k > 0 {
			t += m.TLookup(surv, r.Width)
		}
		t += pf.tSortAfterWidth(bitsBefore, r.Width, r.Bank)
		t += m.TScan(surv)
		bitsBefore += r.Width
	}
	return t, true
}

// TMCS costs plan p over st in full: a one-plan Profile. Callers costing
// many plans of one column order build the Profile once instead.
func (m *Model) TMCS(p plan.Plan, st Stats) float64 {
	est, _ := m.Profile(st).TMCS(p, math.Inf(1))
	return est
}
