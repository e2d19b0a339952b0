package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The reference enumeration: Algorithm 1's combination walk and greedy
// assignment as they stood before comboWalk — every combination
// enumerated to the end and dominance tested on the whole combination.

func refForEachBankCombo(k, W int, f func(banks []int)) {
	banks := make([]int, k)
	var rec func(i, capacity int)
	rec = func(i, capacity int) {
		if i == k {
			if capacity >= W && !refDominatedCombo(banks, W) {
				f(banks)
			}
			return
		}
		for _, b := range plan.Banks {
			banks[i] = b
			if capacity+b+(k-1-i)*64 < W {
				continue
			}
			rec(i+1, capacity+b)
		}
	}
	rec(0, 0)
}

func refDominatedCombo(banks []int, W int) bool {
	k := len(banks)
	for i := 0; i+1 < k; i++ {
		maxPair := banks[i] + banks[i+1]
		if room := W - (k - 2); room < maxPair {
			maxPair = room
		}
		if maxPair <= banks[i] {
			return true
		}
	}
	return false
}

func refGreedyAssign(pf *costmodel.Profile, W int, banks []int) (plan.Plan, bool) {
	k := len(banks)
	if k == 1 {
		if W > banks[0] {
			return plan.Plan{}, false
		}
		return plan.Plan{Rounds: []plan.Round{{Width: W, Bank: banks[0]}}}, true
	}
	rounds := make([]plan.Round, 0, k)
	remaining := W
	bitsBefore := 0
	for i := 0; i < k-1; i++ {
		laterCap := 0
		for j := i + 1; j < k; j++ {
			laterCap += banks[j]
		}
		lo := remaining - laterCap
		if lo < 1 {
			lo = 1
		}
		hi := banks[i]
		if hi > remaining-(k-1-i) {
			hi = remaining - (k - 1 - i)
		}
		if lo > hi {
			return plan.Plan{}, false
		}
		bestA, bestCost := -1, 0.0
		for a := lo; a <= hi; a++ {
			c := pf.TSortAfter(bitsBefore+a, banks[i+1])
			if bestA < 0 || c < bestCost {
				bestA, bestCost = a, c
			}
		}
		rounds = append(rounds, plan.Round{Width: bestA, Bank: banks[i]})
		remaining -= bestA
		bitsBefore += bestA
	}
	if remaining < 1 || remaining > banks[k-1] {
		return plan.Plan{}, false
	}
	rounds = append(rounds, plan.Round{Width: remaining, Bank: banks[k-1]})
	return plan.Plan{Rounds: rounds}, true
}

// TestComboWalkMatchesReferenceGreedy checks the candidate sequence, not
// just the winner: over random column shapes comboWalk yields exactly
// the plans of the reference, in its order.
func TestComboWalkMatchesReferenceGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := costmodel.Builtin()
	var w comboWalk
	for iter := 0; iter < 60; iter++ {
		nCols := 1 + rng.Intn(3)
		widths, distinct := make([]int, nCols), make([]int, nCols)
		for i := range widths {
			widths[i] = 1 + rng.Intn(24)
			distinct[i] = 1 + rng.Intn(1<<uint(min(widths[i], 12)))
		}
		st := uniformStats(int64(iter), 1<<12, widths, distinct)
		switch iter % 3 {
		case 1:
			st.LimitRows = 1 + rng.Intn(st.N)
		case 2:
			st.LimitGroups = 1 + rng.Intn(40)
		}
		pf, W := m.Profile(st), st.TotalWidth()
		for k := 1; k <= plan.MaxRounds(W); k++ {
			var want []string
			refForEachBankCombo(k, W, func(banks []int) {
				if p, ok := refGreedyAssign(pf, W, banks); ok {
					want = append(want, p.String())
				}
			})
			var got []string
			w.forEachCombo(pf, k, W, func() bool {
				if w.assign() {
					got = append(got, plan.Plan{Rounds: w.rounds}.String())
				}
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("widths %v k=%d:\n got  %v\n want %v", widths, k, got, want)
			}
		}
	}
}

var benchChoice Choice

// BenchmarkROGATopKSearch times the cold plan search of a
// serve_topk_cold page: /split is the whole truncated search (the
// unlimited order search, then the widths under the cut), what the
// first page of the query pays; /pinned-order is its second half
// alone, what a later page that pins the cached order pays.
func BenchmarkROGATopKSearch(b *testing.B) {
	split := topKSearch(b, 3700)
	pinned := *split
	pinned.FixedOrder = roga(split).ColOrder
	for _, bc := range []struct {
		name string
		s    *Search
	}{{"split", split}, {"pinned-order", &pinned}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchChoice = roga(bc.s)
			}
		})
	}
}

// TestTopKSearchCost is the machine-independent gate on that search:
// counts, not a stopwatch. The search is truncated, so it visits the 24
// orders without the limit and then the chosen one under it. One
// profile per column order visited (a per-candidate rebuild would show
// as thousands), and scratch reused across candidates (the pre-Profile
// search made 18,108 allocations here; this one makes about 9 per
// order, and the bound leaves room for 15).
func TestTopKSearchCost(t *testing.T) {
	s := topKSearch(t, 3700)
	const maxAllocs = 15 * 25
	if allocs := testing.AllocsPerRun(5, func() { roga(s) }); allocs > maxAllocs {
		t.Errorf("search allocates %.0f times, bound %d", allocs, maxAllocs)
	}

	obs.Enable()
	defer obs.Disable()
	profilesBuilt := func() int64 {
		for _, c := range obs.Snapshot().Counters {
			if c.Name == "costmodel.profiles_built" {
				return c.Value
			}
		}
		t.Fatal("no costmodel.profiles_built counter")
		return 0
	}
	profiles, orders := profilesBuilt(), obsOrders.Value()
	enumerated, costed := obsCandidates.Value(), obsPlansCosted.Value()
	roga(s)
	profiles, orders = profilesBuilt()-profiles, obsOrders.Value()-orders
	enumerated, costed = obsCandidates.Value()-enumerated, obsPlansCosted.Value()-costed
	if orders != 25 || profiles != orders {
		t.Errorf("%d profiles built for %d orders, want one each of 25", profiles, orders)
	}
	// 4,464 candidates over the 24 orders, 186 in the pinned one.
	if enumerated != 4650 || costed < 1 || costed > enumerated {
		t.Errorf("enumerated %d candidates (want 4650), costed %d in full (want 1 … enumerated)", enumerated, costed)
	}
}
