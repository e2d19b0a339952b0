package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/table"
)

// newCache is a clock-free planner at the test servers' budget.
func newCache(t *testing.T, capacity int) *PlanCache {
	t.Helper()
	c, err := NewPlanCache(BuiltinModel(), 0, 8192, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bind binds q to tbl.
func bind(t *testing.T, tbl *table.Table, q engine.Query) *engine.Bound {
	t.Helper()
	b, err := engine.Bind(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// orderByBound is a one-column ORDER BY, whose search never splits:
// its pages, one per limit, file plan entries only.
func orderByBound(t *testing.T) *engine.Bound {
	t.Helper()
	return bind(t, testTPCH(t, 2000), engine.Query{Kind: planner.OrderBy, SortCols: []engine.SortCol{{Name: "p_brand"}}})
}

// lookup is the plan a page of b cut at limit finds in c, if any.
func lookup(c *PlanCache, b *engine.Bound, limit int) (planner.Choice, bool) {
	if o := c.Page(b, &limit, 0, nil).Options().PlanOverride; o != nil {
		return *o, true
	}
	return planner.Choice{}, false
}

// file fills the page of b cut at limit with choice.
func file(c *PlanCache, b *engine.Bound, limit int, choice planner.Choice) {
	c.Page(b, &limit, 0, nil).Fill(choice)
}

func TestPlanCacheHitMissStats(t *testing.T) {
	c, b := newCache(t, 4), orderByBound(t)
	limit := 1
	page := c.Page(b, &limit, 0, nil)
	if page.Options().PlanOverride != nil {
		t.Fatal("hit on empty cache")
	}
	page.Fill(planner.Choice{ColOrder: []int{2, 0, 1}, Est: 42})
	choice, ok := lookup(c, b, 1)
	if !ok {
		t.Fatal("miss after Fill")
	}
	if len(choice.ColOrder) != 3 || choice.ColOrder[0] != 2 || choice.Est != 42 {
		t.Errorf("cached choice mangled: %+v", choice)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Errorf("Stats = (%d,%d,%d), want (1,1,0)", hits, misses, evictions)
	}
}

func TestPlanCacheUpdateExisting(t *testing.T) {
	c, b := newCache(t, 4), orderByBound(t)
	// Two pages that miss together file in turn: the later choice wins.
	first, second := c.Page(b, nil, 0, nil), c.Page(b, nil, 0, nil)
	first.Fill(planner.Choice{Est: 1})
	second.Fill(planner.Choice{Est: 2})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after two fills of one key, want 1", c.Len())
	}
	if o := c.Page(b, nil, 0, nil).Options().PlanOverride; o == nil || o.Est != 2 {
		t.Errorf("lookup returned %+v, want the later choice Est=2", o)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c, b := newCache(t, 2), orderByBound(t)
	const a, bb, cc = 1, 2, 3 // three limits: three plan keys
	file(c, b, a, planner.Choice{Est: 1})
	file(c, b, bb, planner.Choice{Est: 2})
	if _, ok := lookup(c, b, a); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	file(c, b, cc, planner.Choice{Est: 3}) // evicts b
	if _, ok := lookup(c, b, bb); ok {
		t.Error("b survived eviction; LRU order not honored")
	}
	if _, ok := lookup(c, b, a); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, ok := lookup(c, b, cc); !ok {
		t.Error("c (just inserted) missing")
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestPageLimitZeroTouchesNothing: a LIMIT 0 page runs no search, so it
// neither reads the unlimited query's entry, which shares its plan key,
// nor files one, and counts no hit or miss.
func TestPageLimitZeroTouchesNothing(t *testing.T) {
	c := newCache(t, 4)
	b := bind(t, testTPCH(t, 2000), windowShape())
	c.Page(b, nil, 0, nil).Fill(planner.Choice{Est: 1})
	zero := 0
	page := c.Page(b, &zero, 0, nil)
	if o := page.Options(); o.PlanOverride != nil || o.Limit == nil || *o.Limit != 0 {
		t.Errorf("LIMIT 0 options %+v: want the cut and no cached plan", o)
	}
	page.Fill(planner.Choice{Est: 2})
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("Stats hits %d misses %d, want only the unlimited page's miss", hits, misses)
	}
	if o := c.Page(b, nil, 0, nil).Options().PlanOverride; o == nil || o.Est != 1 {
		t.Errorf("unlimited entry %+v after a LIMIT 0 fill, want Est 1", o)
	}
	if c.Len() != 1 || c.OrderLen() != 0 {
		t.Errorf("%d plan and %d order entries, want 1 and 0", c.Len(), c.OrderLen())
	}
}

// TestPagePinnedKeysSeparate: a page with a caller's col_order and the
// same page free to order search differently, so neither reads the
// other's entry; a pinned miss carries the pin.
func TestPagePinnedKeysSeparate(t *testing.T) {
	c := newCache(t, 4)
	b := bind(t, testTPCH(t, 2000), windowShape())
	limit, pin := 10, []int{1, 0, 2}
	c.Page(b, &limit, 0, nil).Fill(planner.Choice{ColOrder: []int{0, 1, 2}, Est: 1})
	pinned := c.Page(b, &limit, 0, pin)
	if o := pinned.Options(); o.PlanOverride != nil || !reflect.DeepEqual(o.FixedColOrder, pin) {
		t.Fatalf("pinned page after a free fill: options %+v, want a miss pinned to %v", o, pin)
	}
	pinned.Fill(planner.Choice{ColOrder: pin, Est: 2})
	for _, tc := range []struct {
		pin []int
		est float64
	}{{nil, 1}, {pin, 2}} {
		if o := c.Page(b, &limit, 0, tc.pin).Options().PlanOverride; o == nil || o.Est != tc.est {
			t.Errorf("pin %v: cached %+v, want Est %g", tc.pin, o, tc.est)
		}
	}
	if c.OrderLen() != 1 {
		t.Errorf("%d order entries, want the free page's one", c.OrderLen())
	}
}

// TestPageFillAfterHitIsNoOp: a page that hit its entry files nothing,
// whatever it is handed.
func TestPageFillAfterHitIsNoOp(t *testing.T) {
	c := newCache(t, 4)
	b := bind(t, testTPCH(t, 2000), windowShape())
	limit := 10
	c.Page(b, &limit, 0, nil).Fill(planner.Choice{ColOrder: []int{0, 1, 2}, Est: 1})
	hit := c.Page(b, &limit, 0, nil)
	if hit.Options().PlanOverride == nil {
		t.Fatal("miss after Fill")
	}
	hit.Fill(planner.Choice{ColOrder: []int{1, 0, 2}, Est: 2})
	if o := c.Page(b, &limit, 0, nil).Options().PlanOverride; o == nil || o.Est != 1 {
		t.Errorf("cached %+v after a hit's Fill, want the first choice", o)
	}
	other := 20
	if o := c.Page(b, &other, 0, nil).Options().FixedColOrder; !reflect.DeepEqual(o, []int{0, 1, 2}) {
		t.Errorf("order entry %v after a hit's Fill, want the first page's", o)
	}
	if _, _, ev := c.Stats(); c.Len() != 1 || ev != 0 {
		t.Errorf("%d plan entries, %d evictions; want 1 and 0", c.Len(), ev)
	}
}

// windowShape is a window query free to order three columns.
func windowShape() engine.Query {
	return engine.Query{Kind: planner.PartitionBy,
		SortCols: []engine.SortCol{{Name: "supp_nation"}, {Name: "cust_nation"}, {Name: "p_brand"}},
		Window:   &engine.Window{OrderCol: "l_extendedprice", Desc: true}}
}

// TestOrderKeyIsTheOrderSearch holds the order entry to the first half
// of a split search: over a grid of clauses, pins, limits and offsets,
// a page on an empty cache files an order entry exactly when its
// search splits, and two splitting pages share one exactly when their
// unlimited order searches are equal.
func TestOrderKeyIsTheOrderSearch(t *testing.T) {
	tbl := testTPCH(t, 3000)
	window := engine.Query{Kind: planner.PartitionBy, SortCols: []engine.SortCol{{Name: "p_brand"}},
		Window: &engine.Window{OrderCol: "l_extendedprice", Desc: true}}
	window2 := windowShape()
	window2.SortCols = window2.SortCols[1:]
	group := engine.Query{Kind: planner.GroupBy, SortCols: []engine.SortCol{{Name: "p_brand"}, {Name: "supp_nation"}},
		Agg: &engine.Agg{Kind: engine.Sum, Col: "l_extendedprice"}}
	orderBy := engine.Query{Kind: planner.OrderBy, SortCols: group.SortCols}
	byAgg, filtered := group, group
	byAgg.OrderByAgg = true
	filtered.Filters = []engine.Filter{{Col: "p_size", Op: byteslice.LT, Const: 25}}

	var labels, keys []string
	var orderSearches []*planner.Search
	for qi, q := range []engine.Query{window, window2, group, orderBy, byAgg, filtered} {
		b := bind(t, tbl, q)
		sel, err := b.Select(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		st := costmodel.Stats{N: sel.Count()}
		for _, sc := range b.Sort {
			cs, err := tbl.Stats(sc.Name)
			if err != nil {
				t.Fatal(err)
			}
			st.Cols = append(st.Cols, cs)
		}
		for _, pin := range [][]int{nil, {0, 1}} {
			for _, limit := range []int{-1, 0, 5, 8} { // -1: no limit
				for _, offset := range []int{0, 3} {
					label := fmt.Sprintf("query %d pin %v limit %d offset %d", qi, pin, limit, offset)
					var lim *int
					if limit >= 0 {
						lim = &limit
					}
					c := newCache(t, 4)
					page := c.Page(b, lim, offset, pin)
					s := engine.NewSearch(q, st, page.Options())
					page.Fill(planner.Choice{ColOrder: []int{0, 1}})
					if filed := c.OrderLen() == 1; filed != s.Splits() {
						t.Errorf("%s: order entry filed %v, search splits %v", label, filed, s.Splits())
					}
					if !s.Splits() {
						continue
					}
					unlimited := *s
					unlimited.Stats.LimitRows, unlimited.Stats.LimitGroups = 0, 0
					labels, keys, orderSearches = append(labels, label), append(keys, page.orderKey), append(orderSearches, &unlimited)
				}
			}
		}
	}
	if len(keys) == 0 {
		t.Fatal("no request split its search")
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if same := reflect.DeepEqual(orderSearches[i], orderSearches[j]); (keys[i] == keys[j]) != same {
				t.Errorf("%s and %s: equal keys %v, equal order searches %v", labels[i], labels[j], keys[i] == keys[j], same)
			}
		}
	}
}

// TestServedSettings: the planner fixes a daemon's search settings
// once — a positive ρ refused, 0 stored as -1 (no clock), a negative
// one kept, and MaxPlans 0 the serving default — and a server's pages
// carry them.
func TestServedSettings(t *testing.T) {
	if _, err := NewPlanCache(BuiltinModel(), 0.001, 0, 0); err == nil {
		t.Error("NewPlanCache accepted a positive Rho")
	}
	b := orderByBound(t)
	for _, tc := range []struct {
		rho, wantRho       float64
		maxPlans, wantPlan int
	}{{0, -1, 0, DefaultMaxPlans}, {-2, -2, 8192, 8192}} {
		c, err := NewPlanCache(BuiltinModel(), tc.rho, tc.maxPlans, 0)
		if err != nil {
			t.Fatal(err)
		}
		if o := c.Page(b, nil, 0, nil).Options(); o.Rho != tc.wantRho || o.MaxPlans != tc.wantPlan || !o.Massaging || o.Model == nil {
			t.Errorf("Rho %g MaxPlans %d: page options %+v, want Rho %g MaxPlans %d", tc.rho, tc.maxPlans, o, tc.wantRho, tc.wantPlan)
		}
	}
	reg := NewRegistry()
	if err := reg.Register(b.Table); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, Model: BuiltinModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if o := srv.PlanCache().Page(b, nil, 0, nil).Options(); o.Rho != -1 || o.MaxPlans != DefaultMaxPlans {
		t.Errorf("server page options Rho %g MaxPlans %d, want -1 and %d", o.Rho, o.MaxPlans, DefaultMaxPlans)
	}
}
