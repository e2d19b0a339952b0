package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/plan"
)

// The reference: the direct formulas as they stood before Profile,
// re-deriving every statistic per call. Profile must agree with them bit
// for bit — plan choice compares these floats with <.

func refSurvivorsAfter(s Stats, bits int) float64 {
	n := float64(s.N)
	if (s.LimitRows <= 0 && s.LimitGroups <= 0) || bits <= 0 || s.N <= 0 {
		return n
	}
	nGroup, _, _ := refGroupProfile(s, bits)
	if nGroup < 1 {
		nGroup = 1
	}
	avg := n / nGroup
	var v float64
	if s.LimitRows > 0 {
		v = float64(s.LimitRows) + avg
	} else {
		v = float64(s.LimitGroups) * avg
	}
	if v > n {
		v = n
	}
	if v < 1 {
		v = 1
	}
	return v
}

func refDupFrac(s Stats, bits int) float64 {
	if s.N <= 0 {
		return 0
	}
	f := 1 - s.distinctOfPrefix(bits)/float64(s.N)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func refGroupProfile(s Stats, bits int) (nGroup, nSort, rowsInSorts float64) {
	n := float64(s.N)
	if bits <= 0 {
		return 1, 1, n
	}
	p := s.distinctOfPrefix(bits)
	if p <= 1 {
		return 1, 1, n
	}
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

func refTSortAfter(m *Model, st Stats, bitsBefore, bank int) float64 {
	width := st.TotalWidth() - bitsBefore
	if width > bank {
		width = bank
	}
	return refTSortAfterWidth(m, st, bitsBefore, width, bank)
}

func refTRadix(m *Model, n float64, bank, width int, fresh bool) float64 {
	if n < 2 {
		return 0
	}
	if n < 64 {
		return m.C.SmallCall + m.C.SmallElem*n + m.C.SmallQuad*n*n
	}
	// Pairs on 8-bit digits, or from 2,048 rows on in banks 16 and 32
	// packed words on two 8-bit or three 11-bit digits.
	bits, hists, rowBytes := 8, bank/8, 24.0
	scatterC, memC := m.C.RadixScatter, m.C.RadixScatterMem
	if bank <= 32 && n >= 2048 {
		bits, hists, rowBytes = 8, 2, 16
		if bank == 32 {
			bits, hists = 11, 3
		}
		scatterC, memC = m.C.RadixWordScatter, m.C.RadixWordScatterMem
	}
	digits := math.Ceil(float64(width) / float64(bits))
	hit := math.Min(float64(m.L2)/(rowBytes*n), 1)
	scatter := scatterC*digits*hit + memC*float64(width)/8*(1-hit)
	t := m.C.RadixOffsets*digits*math.Exp2(float64(bits))/256 + n*(m.C.RadixCount+m.C.RadixCountHist*float64(hists)+scatter)
	if fresh {
		scratch := rowBytes
		if digits <= 2 {
			scratch /= 2
		}
		t += m.C.RadixAlloc * n * scratch / 24
	}
	return t
}

// refTopK replays the radix select's passes (mergesort/topk.go) on the
// prefix profile: each pass resolves the key bits from its shift up;
// one that finds no key bits recounts at the key's top digit; a
// boundary bucket above N/16 rows is refined one digit lower.
func refTopK(m *Model, st Stats, width, bank int) float64 {
	n := float64(st.N)
	passes := 0.0
	shift := bank - 10
	var bucket float64
	for {
		passes++
		if width <= shift {
			shift = max(width-10, 0)
			continue
		}
		bucket = n / st.distinctOfPrefix(width-shift)
		if shift == 0 || bucket <= n/16 {
			break
		}
		shift = max(shift-10, 0)
	}
	kept := math.Min(n, float64(st.LimitRows)+bucket)
	return m.C.Select*n*passes + refTSortFresh(m, st, kept, width, bank)
}

// refTSortFresh is a first round's sort of n rows: the plugged-in term
// when the model has one, else the radix kernel on fresh scratch.
func refTSortFresh(m *Model, st Stats, n float64, width, bank int) float64 {
	if m.Sort != nil {
		return m.Sort(m, n, bank, width, refDupFrac(st, width))
	}
	return refTRadix(m, n, bank, width, true)
}

func refTSortAfterWidth(m *Model, st Stats, bitsBefore, width, bank int) float64 {
	dup := refDupFrac(st, bitsBefore+width)
	if bitsBefore <= 0 {
		if st.LimitRows > 0 && st.LimitRows < st.N && st.N >= 64 {
			return refTopK(m, st, width, bank)
		}
		return refTSortFresh(m, st, float64(st.N), width, bank)
	}
	_, nSort, rows := refGroupProfile(st, bitsBefore)
	if nSort < 1 {
		return 0
	}
	if scale := refSurvivorsAfter(st, bitsBefore) / float64(st.N); scale < 1 {
		nSort *= scale
		rows *= scale
		if nSort < 1 {
			nSort = 1
		}
	}
	avg := rows / nSort
	if m.Sort != nil {
		return nSort * m.Sort(m, avg, bank, width, dup)
	}
	return nSort * refTRadix(m, avg, bank, width, false)
}

func refTSortRound(m *Model, p plan.Plan, st Stats, k int) float64 {
	bitsBefore := 0
	for i := 0; i < k-1; i++ {
		bitsBefore += p.Rounds[i].Width
	}
	return refTSortAfterWidth(m, st, bitsBefore, p.Rounds[k-1].Width, p.Rounds[k-1].Bank)
}

// refTMCS adds the terms in TMCS's order: the unlimited source gather
// first, then per round its massage, sort, lookup and scan.
func refTMCS(m *Model, p plan.Plan, st Stats) float64 {
	inWidths := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		inWidths[i] = c.Width
	}
	limited := st.LimitRows > 0 || st.LimitGroups > 0
	rf := plan.RoundFIPs(inWidths, p.Widths())
	t := 0.0
	if !limited {
		t = m.C.CGatherPlane * float64(st.N) * float64(refRoundPlanes(st, 0, st.TotalWidth()))
	}
	bitsBefore := 0
	for k := 1; k <= len(p.Rounds); k++ {
		width := p.Rounds[k-1].Width
		surv := st.N
		if k > 1 {
			surv = int(refSurvivorsAfter(st, bitsBefore))
		}
		massage, lookup := m.TMassage(rf[k-1], 1, surv), 0.0
		planes := refRoundPlanes(st, bitsBefore, width)
		switch {
		case k == 1 && limited:
			massage += m.C.CGatherPlane * float64(surv) * float64(planes)
		case k > 1 && limited:
			lookup = m.tGather(surv, st.N, rf[k-1], planes)
		case k > 1:
			lookup = m.TLookup(st.N, width)
		}
		sort := refTSortRound(m, p, st, k)
		if k == 1 && st.LimitRows > 0 {
			surv = int(refSurvivorsAfter(st, width))
		}
		t += massage + sort + lookup + m.TScan(surv, refGroupsScanned(st, bitsBefore+width, surv))
		bitsBefore += width
	}
	return t
}

// refRoundPlanes is the byte planes of the columns bits [lo, lo+width)
// of the concatenation overlap.
func refRoundPlanes(st Stats, lo, width int) int {
	planes, start := 0, 0
	for _, c := range st.Cols {
		if start < lo+width && lo < start+c.Width {
			planes += (c.Width + 7) / 8
		}
		start += c.Width
	}
	return planes
}

// refGroupsScanned is the groups of the bits-bit prefix among the rows
// rows a scan reads.
func refGroupsScanned(st Stats, bits, rows int) float64 {
	nGroup, _, _ := refGroupProfile(st, bits)
	return nGroup * float64(rows) / float64(max(st.N, 1))
}

// randomStats draws 1–6 columns of width 1–40 whose prefix-distinct
// profiles grow at a random rate up to a random cardinality, with a row
// or group limit on about half the draws and now and then no rows.
func randomStats(rng *rand.Rand) Stats {
	st := Stats{N: 1 + rng.Intn(1<<uint(4+rng.Intn(20)))}
	for c, m := 0, 1+rng.Intn(6); c < m; c++ {
		w := 1 + rng.Intn(40)
		card := 1 + rng.Float64()*float64(st.N)*2
		pd := make([]float64, w+1)
		pd[0] = 1
		for t := 1; t <= w; t++ {
			pd[t] = math.Min(math.Ceil(pd[t-1]*(1+rng.Float64())), math.Floor(card))
		}
		st.Cols = append(st.Cols, ColumnStats{Width: w, PrefixDistinct: pd})
	}
	switch rng.Intn(4) {
	case 0:
		st.LimitRows = 1 + rng.Intn(st.N)
	case 1:
		st.LimitGroups = 1 + rng.Intn(1000)
	}
	if rng.Intn(50) == 0 {
		st.N = 0 // a filter that selects nothing
	}
	return st
}

// randomPlanOf draws a valid plan over W bits: random widths ≤ 64, each
// with a random bank that holds it.
func randomPlanOf(rng *rand.Rand, W int) plan.Plan {
	var p plan.Plan
	for W > 0 {
		w := 1 + rng.Intn(min(W, plan.MaxWidth))
		bank := plan.MinBankFor(w)
		for bank < 64 && rng.Intn(3) == 0 {
			bank *= 2
		}
		p.Rounds = append(p.Rounds, plan.Round{Width: w, Bank: bank})
		W -= w
	}
	return p
}

// tSortRound is Equation 1 for round k (1-based) of plan p, the
// Profile's counterpart of refTSortRound.
func (pf *Profile) tSortRound(p plan.Plan, k int) float64 {
	bitsBefore := 0
	for i := 0; i < k-1; i++ {
		bitsBefore += p.Rounds[i].Width
	}
	return pf.tSortAfterWidth(bitsBefore, p.Rounds[k-1].Width, p.Rounds[k-1].Bank)
}

func TestProfileMatchesDirectFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// The radix term, and a term plugged into Model.Sort that discounts
	// duplicates, as the paper kernel's does.
	models := []*Model{Builtin(), hooked(dupTerm(0.6))}
	for _, m := range models {
		m.C.CScanGroup, m.C.CMassageKey = 2.5, 1.5
	}
	for iter := 0; iter < 400; iter++ {
		m := models[iter%2]
		st := randomStats(rng)
		W := st.TotalWidth()
		pf := m.Profile(st)
		for _, bank := range plan.Banks {
			for bits := 0; bits <= W; bits++ {
				// Twice: the second read is the memo.
				for rep := 0; rep < 2; rep++ {
					got, want := pf.Round(bits, min(W-bits, bank), bank).Sort, refTSortAfter(m, st, bits, bank)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("iter %d: Round(%d, widest, %d).Sort = %v, direct %v (stats %+v)", iter, bits, bank, got, want, st)
					}
				}
			}
		}
		for j := 0; j < 20; j++ {
			p := randomPlanOf(rng, W)
			for k := 1; k <= len(p.Rounds); k++ {
				got, want := pf.tSortRound(p, k), refTSortRound(m, p, st, k)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("iter %d: TSortRound(%v, %d) = %v, direct %v (stats %+v)", iter, p, k, got, want, st)
				}
			}
			want := refTMCS(m, p, st)
			if got := pf.TMCS(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iter %d: TMCS(%v) = %v, direct %v (stats %+v)", iter, p, got, want, st)
			}
			if w := m.TMCS(p, st); math.Float64bits(w) != math.Float64bits(want) {
				t.Fatalf("iter %d: Model.TMCS(%v) = %v, direct %v", iter, p, w, want)
			}
			if terms := m.Terms(p, st); math.Abs(terms.Total()-want) > 1e-9*want {
				t.Fatalf("iter %d: Terms(%v) sum to %v, TMCS %v", iter, p, terms.Total(), want)
			}
		}
	}
}

// TestOptimalIsTheLeastTMCS: Optimal returns a valid plan whose TMCS is
// its estimate bit for bit, no random plan of the order costs less, and
// it costs Edges rounds: one per first bit, width and bank that holds
// the width.
func TestOptimalIsTheLeastTMCS(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	models := []*Model{Builtin(), hooked(dupTerm(0.6))}
	for iter := 0; iter < 300; iter++ {
		m, st := models[iter%2], randomStats(rng)
		W := st.TotalWidth()
		pf := m.Profile(st)
		p, est := pf.Optimal()
		if err := p.Validate(W); err != nil {
			t.Fatalf("iter %d: invalid plan %v: %v", iter, p, err)
		}
		if got := m.TMCS(p, st); math.Float64bits(got) != math.Float64bits(est) {
			t.Fatalf("iter %d: Optimal %v estimates %v, TMCS %v", iter, p, est, got)
		}
		for j := 0; j < 50; j++ {
			if q := randomPlanOf(rng, W); pf.TMCS(q) < est {
				t.Fatalf("iter %d: %v costs %v, below Optimal's %v %v", iter, q, pf.TMCS(q), p, est)
			}
		}
		edges := 0
		for s := 0; s < W; s++ {
			for width := 1; width <= min(W-s, 64); width++ {
				edges += 3 - min(2, (width-1)/16)
			}
		}
		if pf.Edges() != edges {
			t.Fatalf("iter %d: W %d: %d edges, want %d", iter, W, pf.Edges(), edges)
		}
	}
}
