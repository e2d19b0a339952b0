package planner

import (
	"testing"

	"repro/internal/obs"
)

var benchChoice Choice

// BenchmarkTopKSearch times the cold plan search of a serve_topk_cold
// page: /split is the whole truncated search (the unlimited order
// search, then the widths under the cut), what the first page of the
// query pays; /pinned-order is its second half alone, what a later page
// that pins the cached order pays.
func BenchmarkTopKSearch(b *testing.B) {
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
// counts, not a stopwatch. The search is truncated, so it costs orders
// without the limit until the next would overrun its budget of 8,192
// rounds — 2 orders of 2,864 rounds each at W = 48 — and then the chosen
// order under the limit. One profile per order searched (a per-round
// rebuild would show as thousands), and a handful of allocations per
// order: the profile, its tables, the path arrays and the plan.
func TestTopKSearchCost(t *testing.T) {
	s := topKSearch(t, 3700)
	const maxAllocs = 15 * 3
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
	profiles, orders, costed := profilesBuilt(), obsOrders.Value(), obsPlansCosted.Value()
	roga(s)
	profiles, orders, costed = profilesBuilt()-profiles, obsOrders.Value()-orders, obsPlansCosted.Value()-costed
	if orders != 3 || profiles != orders {
		t.Errorf("%d profiles built for %d orders, want one each of 3", profiles, orders)
	}
	if costed != 3*2864 {
		t.Errorf("costed %d rounds, want 3 orders of 2864", costed)
	}
}
