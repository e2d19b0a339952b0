package server

import (
	"testing"

	"repro/internal/planner"
)

func TestPlanCacheHitMissStats(t *testing.T) {
	c := NewPlanCache(4)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k1", planner.Choice{ColOrder: []int{2, 0, 1}, Est: 42})
	choice, ok := c.Get("k1")
	if !ok {
		t.Fatal("miss after Put")
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
	c := NewPlanCache(4)
	c.Put("k", planner.Choice{Est: 1})
	c.Put("k", planner.Choice{Est: 2})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put of one key, want 1", c.Len())
	}
	if choice, _ := c.Get("k"); choice.Est != 2 {
		t.Errorf("Get returned stale choice Est=%g, want 2", choice.Est)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", planner.Choice{Est: 1})
	c.Put("b", planner.Choice{Est: 2})
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", planner.Choice{Est: 3}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not honored")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c (just inserted) missing")
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}
