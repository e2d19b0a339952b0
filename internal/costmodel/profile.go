package costmodel

import (
	"math"
	"slices"

	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/plan"
)

var obsProfiles = obs.NewCounter("costmodel.profiles_built")

// Profile is the cost model bound to one column order: everything the
// round terms need of (model, stats), tabulated per prefix length
// bits ∈ [0, W], so costing a round is array arithmetic. The plan search
// costs every round of the order (Optimal), and all of them ask the
// same ≤ W+1 questions of the statistics, so each is asked once. Rows
// fill on first use, so a Profile is not safe for concurrent use; it is
// per-search scratch, dropped with the search.
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
	tables := make([]float64, 5*(w+1))
	for i := range tables {
		tables[i] = -1
	}
	take := func() []float64 {
		t := tables[: w+1 : w+1]
		tables = tables[w+1:]
		return t
	}
	pf.dup, pf.group, pf.surv, pf.calls, pf.avg = take(), take(), take(), take(), take()
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

// tSortAfterWidth is Equation 1 for a round that sorts width bits in a
// bank-bit bank after bitsBefore bits have already been sorted, over the
// group profile those bits induce: the radix kernel scatters once per
// live digit of exactly the bits this round sorts, and the paper term's
// duplicate fraction covers them. The fraction is taken over all rows
// (not only rows in non-singleton groups) — an approximation that errs
// toward less discount, since singleton rows are globally unique.
func (pf *Profile) tSortAfterWidth(bitsBefore, width, bank int) float64 {
	if bitsBefore <= 0 {
		return pf.tSortFirst(width, bank)
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
// must cover the profile's W bits: Base, then each round's cost (Round)
// in round order.
func (pf *Profile) TMCS(p plan.Plan) float64 {
	t, lo := pf.Base(), 0
	for _, r := range p.Rounds {
		t += pf.Round(lo, r.Width, r.Bank).Total()
		lo += r.Width
	}
	return t
}

// Base is the part of T_mcs no plan choice moves. An unlimited plan
// massages every row of every source column, and nothing is
// materialized before the sort, so the massage first gathers each
// column's ByteSlice once (tSourceGather). Under a row or group limit
// the gather is the first round's, part of that round's massage.
func (pf *Profile) Base() float64 {
	if pf.limited {
		return 0
	}
	return pf.m.tSourceGather(pf.st.N, pf.roundPlanes(0, pf.w))
}

// Round estimates one round of a plan, term by term: the round that
// sorts bits [lo, lo+width) of the concatenation in a bank-bit bank. It
// massages its key (its FIPs and one key write per row), looks the key
// up through the permutation unless it is the first round, sorts, and
// scans for group boundaries. Every input is fixed by lo, width and
// bank, which is what lets Optimal search an order's plans as paths.
// Truncated stats (LimitRows/LimitGroups > 0) model the deferred
// execution: the first round gathers its own source columns
// (tSourceGather); a later round massages only the surviving prefix,
// whose keys it gathers from the input columns through the permutation
// (tGather); and the scans shrink with the survivors, which is what
// makes massaging rarely pay below small K.
func (pf *Profile) Round(lo, width, bank int) Terms {
	t := pf.unsorted(lo, width)
	t.Sort = pf.tSortAfterWidth(lo, width, bank)
	return t
}

// unsorted is Round without its sort term: the terms the bank does not
// move.
func (pf *Profile) unsorted(lo, width int) Terms {
	m, n := pf.m, pf.st.N
	surv, fips := n, pf.roundFIPs(lo, width)
	var t Terms
	if pf.limited {
		if lo > 0 {
			surv = int(pf.surv[pf.row(lo)])
			t.Lookup = m.tGather(surv, n, fips, pf.roundPlanes(lo, width))
		}
		t.Massage = m.TMassage(fips, 1, surv)
		if lo == 0 {
			t.Massage += m.tSourceGather(surv, pf.roundPlanes(0, width))
		}
	} else {
		t.Massage = m.TMassage(fips, 1, n)
		if lo > 0 {
			t.Lookup = m.TLookup(n, width)
		}
	}
	if lo == 0 && pf.st.LimitRows > 0 {
		// The top-K sort hands the scan only the rows up to its
		// tie-extended cut.
		surv = int(pf.surv[pf.row(width)])
	}
	// The scan emits the groups of the prefix sorted so far that fall
	// among the rows it reads.
	t.Scan = m.TScan(surv, pf.group[pf.row(lo+width)]*float64(surv)/float64(max(n, 1)))
	return t
}

// Optimal returns the plan of least TMCS over the profile's column
// order, and that estimate. Every plan is a path of rounds from bit 0
// to bit W, and a round's cost depends only on its first bit, width and
// bank (Round), so the cheapest plan is a shortest path over the W+1 bit
// positions: cost[0] = Base, and each round (s → s+width, bank) relaxes
// cost[s+width] in (s, width, bank) ascending order, strictly, so ties
// resolve to the earliest. The path cost adds the same terms in the same
// order as TMCS, so it is TMCS of the plan bit for bit. Optimal costs
// Edges rounds.
func (pf *Profile) Optimal() (plan.Plan, float64) {
	type via struct{ from, bank int }
	cost, prev := make([]float64, pf.w+1), make([]via, pf.w+1)
	cost[0] = pf.Base()
	for e := 1; e <= pf.w; e++ {
		cost[e] = math.Inf(1)
	}
	pf.edges(func(s, width int, banks []int) {
		t := pf.unsorted(s, width)
		for _, bank := range banks {
			t.Sort = pf.tSortAfterWidth(s, width, bank)
			if c := cost[s] + t.Total(); c < cost[s+width] {
				cost[s+width], prev[s+width] = c, via{s, bank}
			}
		}
	})
	var rounds []plan.Round
	for e := pf.w; e > 0; e = prev[e].from {
		rounds = append(rounds, plan.Round{Width: e - prev[e].from, Bank: prev[e].bank})
	}
	slices.Reverse(rounds)
	return plan.Plan{Rounds: rounds}, cost[pf.w]
}

// Edges is the number of rounds Optimal costs.
func (pf *Profile) Edges() int {
	n := 0
	pf.edges(func(_, _ int, banks []int) { n += len(banks) })
	return n
}

// edges calls f with every first bit s and width a round of the order
// may have, in (s, width) ascending order, and the banks that hold the
// width, ascending.
func (pf *Profile) edges(f func(s, width int, banks []int)) {
	for s := 0; s < pf.w; s++ {
		for width, i := 1, 0; width <= min(plan.MaxWidth, pf.w-s); width++ {
			for plan.Banks[i] < width {
				i++
			}
			f(s, width, plan.Banks[i:])
		}
	}
}

// TMCS costs plan p over st in full: a one-plan Profile. Callers costing
// many plans of one column order build the Profile once instead.
func (m *Model) TMCS(p plan.Plan, st Stats) float64 {
	return m.Profile(st).TMCS(p)
}

// Terms costs plan p over st in full, term by term: Base is massage, and
// each round adds its Round terms. Their sum is TMCS up to the order of
// the additions.
func (m *Model) Terms(p plan.Plan, st Stats) Terms {
	pf := m.Profile(st)
	terms, lo := Terms{Massage: pf.Base()}, 0
	for _, r := range p.Rounds {
		rt := pf.Round(lo, r.Width, r.Bank)
		terms = Terms{terms.Massage + rt.Massage, terms.Sort + rt.Sort, terms.Lookup + rt.Lookup, terms.Scan + rt.Scan}
		lo += r.Width
	}
	return terms
}
