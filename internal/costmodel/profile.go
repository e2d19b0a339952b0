package costmodel

import (
	"math"

	"repro/internal/mergesort"
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
	group []float64 // groups of the bits-bit prefix among all N rows
	surv  []float64 // rows surviving truncation at group boundaries
	calls []float64 // sort calls of the next round (N_sort); 0 = none
	avg   []float64 // rows per call

	// after[bankSlot][bits] memoises TSortAfter(bits, bank), and
	// first[bankSlot][width] the sort cost of a first round width bits
	// wide; −1 = not computed yet.
	after, first [3][]float64
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
	tables := make([]float64, 11*(w+1))
	for i := range tables {
		tables[i] = -1
	}
	take := func() []float64 {
		t := tables[: w+1 : w+1]
		tables = tables[w+1:]
		return t
	}
	pf.dup, pf.group, pf.surv, pf.calls, pf.avg = take(), take(), take(), take(), take()
	for s := range pf.after {
		pf.after[s], pf.first[s] = take(), take()
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
	pf.group[bits] = nGroup
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
// dup-fraction regressor of the paper term's OVC merge discount — rows
// sharing a full round key resolve their merge comparisons on codes
// alone.
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

// TSortAfter estimates the summed sort cost of a round that uses a
// b-bit bank after bitsBefore bits have already been sorted: Equation 1
// over the group profile those bits induce. This is the quantity the
// greedy plan search minimizes when assigning bits to a round; since
// the round width is not fixed yet, the widest key the bank could hold
// stands in for it. bank is one of plan.Banks.
func (pf *Profile) TSortAfter(bitsBefore, bank int) float64 {
	memo := &pf.after[bankSlot(bank)][pf.at(bitsBefore)]
	if *memo < 0 {
		*memo = pf.tSortAfterWidth(bitsBefore, min(pf.w-bitsBefore, bank), bank)
	}
	return *memo
}

// ArgminSortAfter returns the first bitsBefore in [from, to] that
// minimises TSortAfter(bitsBefore, bank): the greedy width choice of the
// plan search, read straight off the memo row.
func (pf *Profile) ArgminSortAfter(from, to, bank int) int {
	memo := pf.after[bankSlot(bank)]
	best, bestCost := from, 0.0
	for b := from; b <= to; b++ {
		c := memo[pf.at(b)]
		if c < 0 {
			c = pf.TSortAfter(b, bank)
		}
		if b == from || c < bestCost {
			best, bestCost = b, c
		}
	}
	return best
}

// tSortAfterWidth is TSortAfter with the round's actual key width: the
// radix kernel scatters once per live digit of exactly the bits this
// round sorts, and the paper term's duplicate fraction covers them. The
// fraction is taken over all rows (not only rows in non-singleton
// groups) — an approximation that errs toward less discount, since
// singleton rows are globally unique.
func (pf *Profile) tSortAfterWidth(bitsBefore, width, bank int) float64 {
	if bitsBefore <= 0 {
		memo := &pf.first[bankSlot(bank)][pf.at(width)]
		if *memo < 0 {
			*memo = pf.tSortFirst(width, bank)
		}
		return *memo
	}
	i := pf.row(bitsBefore)
	if pf.calls[i] < 1 {
		return 0
	}
	if m := pf.m; m.Sort != nil {
		return pf.calls[i] * m.Sort(m, pf.avg[i], bank, width, pf.dup[pf.row(bitsBefore+width)])
	}
	return pf.calls[i] * pf.m.TRadix(pf.avg[i], bank, width)
}

// tSortFirst is the sort cost of round 1, width bits wide: one sort of
// all N rows, or under a row limit the top-K sort.
func (pf *Profile) tSortFirst(width, bank int) float64 {
	n := pf.st.N
	if pf.st.LimitRows > 0 && pf.st.LimitRows < n && n >= mergesort.SmallRunCutoff {
		return pf.tTopK(width, bank)
	}
	return pf.tSortFresh(float64(n), width, bank)
}

// tSortFresh is one sort of n rows of round 1's key, width bits wide,
// on fresh scratch: the plugged-in Sort term when set, else the radix
// kernel.
func (pf *Profile) tSortFresh(n float64, width, bank int) float64 {
	if m := pf.m; m.Sort != nil {
		return m.Sort(m, n, bank, width, pf.dup[pf.row(width)])
	}
	return pf.m.tRadixFresh(n, bank, width)
}

// tTopK prices the top-K sort of round 1 (mergesort.TopKContext):
// radix-select passes over all N rows, then a sort of the kept rows —
// those below the bucket that holds rank LimitRows, and that bucket —
// by whichever kernel sorts (tSortFresh). A pass counts the
// mergesort.SelectDigitBits-bit digit at shift, starting at the bank's
// top digit, and so resolves the key's bits from shift up: none when the
// key is no wider than shift, and then every candidate agrees and the
// next pass counts the key's top digit instead. The select refines, one
// digit lower, while the boundary bucket — on average N over the
// distinct values of the bits resolved so far — holds more than
// N/mergesort.SelectRefineShare rows.
func (pf *Profile) tTopK(width, bank int) float64 {
	n := float64(pf.st.N)
	passes, shift := 1.0, bank-mergesort.SelectDigitBits
	if width <= shift {
		passes++
		shift = max(width-mergesort.SelectDigitBits, 0)
	}
	bucket := n / pf.st.distinctOfPrefix(width-shift)
	for shift > 0 && bucket > n/mergesort.SelectRefineShare {
		shift = max(shift-mergesort.SelectDigitBits, 0)
		passes++
		bucket = n / pf.st.distinctOfPrefix(width-shift)
	}
	kept := math.Min(n, float64(pf.st.LimitRows)+bucket)
	return pf.m.C.Select*n*passes + pf.tSortFresh(kept, width, bank)
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

// roundPlanes is the ByteSlice byte planes, ⌈width/8⌉ per column, of
// the input columns a round key over bits [lo, lo+width) draws from.
func (pf *Profile) roundPlanes(lo, width int) int {
	hi := pf.at(lo + width)
	lo = pf.at(lo)
	planes := 0
	if lo < hi {
		for c := pf.colOf[lo]; c <= pf.colOf[hi-1]; c++ {
			planes += (pf.st.Cols[c].Width + 7) / 8
		}
	}
	return planes
}

// Terms is a T_mcs estimate split into the paper's four subcosts, the
// phases mcsort.Timings measures.
type Terms struct {
	Massage, Sort, Lookup, Scan float64
}

// Total is the summed estimate.
func (t Terms) Total() float64 { return t.Massage + t.Sort + t.Lookup + t.Scan }

// TMCS estimates the total multi-column sorting time of plan p, which
// must cover the profile's W bits: massage upfront — with the gather of
// every source column's ByteSlice once (tSourceGather), since no query
// materializes its sort columns — then per round a lookup (rounds ≥ 2),
// the sorts, and a group-extraction scan.
// Truncated stats (LimitRows/LimitGroups > 0) model the deferred
// execution instead: massage is paid per round — in full for round 1,
// with the gather of its source columns' ByteSlices (tSourceGather),
// then only over the surviving prefix, whose round keys are gathered
// from the input columns through the permutation (tGather) — and the
// scan passes shrink with the survivors, which is what makes massaging
// rarely pay below small K (the upfront FIP work no longer amortizes
// over cheap later rounds).
//
// incumbent is the estimate to beat. Every term is ≥ 0, so the running
// sum is a lower bound of the total in floating point too; once it
// reaches incumbent the plan cannot win and TMCS returns the partial
// sum (≥ incumbent) with complete = false. Pass +Inf to cost in full.
func (pf *Profile) TMCS(p plan.Plan, incumbent float64) (est float64, complete bool) {
	return pf.tmcs(p, incumbent, nil)
}

// tmcs is TMCS that also splits the sum into terms when terms is
// non-nil; the search passes nil.
func (pf *Profile) tmcs(p plan.Plan, incumbent float64, terms *Terms) (t float64, complete bool) {
	m := pf.m
	if !pf.limited {
		iFIP, lo := 0, 0
		for _, r := range p.Rounds {
			iFIP += pf.roundFIPs(lo, r.Width)
			lo += r.Width
		}
		t = m.TMassage(iFIP, len(p.Rounds), pf.st.N) + m.tSourceGather(pf.st.N, pf.roundPlanes(0, lo))
		if terms != nil {
			terms.Massage = t
		}
	}
	bitsBefore := 0
	for k, r := range p.Rounds {
		if t >= incumbent {
			return t, false
		}
		surv := pf.st.N
		fips := 0
		if pf.limited {
			if k > 0 {
				surv = int(pf.surv[pf.row(bitsBefore)])
			}
			fips = pf.roundFIPs(bitsBefore, r.Width)
			v := m.TMassage(fips, 1, surv)
			if k == 0 {
				v += m.tSourceGather(surv, pf.roundPlanes(0, r.Width))
			}
			t += v
			if terms != nil {
				terms.Massage += v
			}
		}
		if k > 0 {
			var v float64
			if pf.limited {
				v = m.tGather(surv, pf.st.N, fips, pf.roundPlanes(bitsBefore, r.Width))
			} else {
				v = m.TLookup(surv, r.Width)
			}
			t += v
			if terms != nil {
				terms.Lookup += v
			}
		}
		v := pf.tSortAfterWidth(bitsBefore, r.Width, r.Bank)
		t += v
		if terms != nil {
			terms.Sort += v
		}
		if k == 0 && pf.st.LimitRows > 0 {
			// The top-K sort hands the scan only the rows up to its
			// tie-extended cut.
			surv = int(pf.surv[pf.row(r.Width)])
		}
		// The scan emits the groups of the prefix sorted so far that
		// fall among the rows it reads.
		groups := pf.group[pf.row(bitsBefore+r.Width)] * float64(surv) / float64(max(pf.st.N, 1))
		v = m.TScan(surv, groups)
		t += v
		if terms != nil {
			terms.Scan += v
		}
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

// Terms costs plan p over st in full, term by term; their sum is TMCS.
func (m *Model) Terms(p plan.Plan, st Stats) Terms {
	var terms Terms
	m.Profile(st).tmcs(p, math.Inf(1), &terms)
	return terms
}
