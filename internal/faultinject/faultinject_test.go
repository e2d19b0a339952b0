package faultinject

import "testing"

func TestDisabledByDefault(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("registry enabled with no hooks")
	}
	Fire(ChunkSort) // must be a no-op, not a nil deref
}

func TestSetFireRestore(t *testing.T) {
	Reset()
	fired := 0
	restore := Set(GroupSort, func() { fired++ })
	if !Enabled() {
		t.Fatal("Set must enable the registry")
	}
	Fire(GroupSort)
	Fire(GroupSort)
	if fired != 2 {
		t.Fatalf("hook fired %d times, want 2", fired)
	}
	Fire(Permute) // other sites stay unhooked
	if fired != 2 {
		t.Fatalf("unhooked site ran the hook")
	}
	restore()
	if Enabled() {
		t.Fatal("restore of the last hook must disable the registry")
	}
	Fire(GroupSort)
	if fired != 2 {
		t.Fatal("hook survived restore")
	}
}

func TestMultipleHooksDisableOnlyWhenEmpty(t *testing.T) {
	Reset()
	r1 := Set(Gather, func() {})
	r2 := Set(Aggregate, func() {})
	r1()
	if !Enabled() {
		t.Fatal("registry disabled while a hook remains")
	}
	r2()
	if Enabled() {
		t.Fatal("registry enabled after all hooks removed")
	}
}

func TestSitesListed(t *testing.T) {
	want := map[string]bool{
		GroupSort: true, Permute: true, ChunkSort: true,
		LoserMerge: true, MassageChunk: true, Payload: true, GroupScan: true,
		FilterScan: true, RowList: true, Gather: true, Aggregate: true,
		ShardFanout: true, ShardMerge: true,
	}
	if len(Sites) != len(want) {
		t.Fatalf("Sites has %d entries, want %d", len(Sites), len(want))
	}
	for _, s := range Sites {
		if !want[s] {
			t.Errorf("unexpected site %q", s)
		}
	}
}

func TestReset(t *testing.T) {
	Set(Permute, func() { t.Fatal("hook survived Reset") })
	Reset()
	if Enabled() {
		t.Fatal("Reset must disable")
	}
	Fire(Permute)
}

// fixedSource yields a scripted uint64 sequence, cycling.
type fixedSource struct {
	vals []uint64
	i    int
}

func (s *fixedSource) Uint64() uint64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func TestSetProbAlwaysAndNever(t *testing.T) {
	Reset()
	src := &fixedSource{vals: []uint64{0}}
	fired := 0
	restore := SetProb(ChunkSort, 1, src, func() { fired++ })
	Fire(ChunkSort)
	Fire(ChunkSort)
	restore()
	if fired != 2 {
		t.Fatalf("p=1 fired %d/2 times", fired)
	}
	if src.i != 0 {
		t.Fatalf("p=1 consumed %d variates, want 0", src.i)
	}
	restore = SetProb(ChunkSort, 0, src, func() { t.Fatal("p=0 must never fire") })
	Fire(ChunkSort)
	restore()
	if Enabled() {
		t.Fatal("restore must disable the registry")
	}
}

func TestSetProbDrawsFromSource(t *testing.T) {
	Reset()
	defer Reset()
	// Variates alternate 0 (always below p) and max (never below p<1):
	// the fire sequence is exactly fire, skip, fire, skip.
	src := &fixedSource{vals: []uint64{0, ^uint64(0)}}
	fired := 0
	defer SetProb(LoserMerge, 0.5, src, func() { fired++ })()
	for i := 0; i < 4; i++ {
		Fire(LoserMerge)
	}
	if fired != 2 {
		t.Fatalf("scripted source fired %d/4 times, want 2", fired)
	}
	if src.i != 4 {
		t.Fatalf("consumed %d variates, want 4", src.i)
	}
}

func TestSetProbDeterministicSequence(t *testing.T) {
	Reset()
	defer Reset()
	// Identically seeded sources must reproduce the same fire/skip
	// pattern — the reproducibility contract a chaos seed rests on.
	run := func() []bool {
		src := &fixedSource{vals: []uint64{
			0x0123456789abcdef, 0xfedcba9876543210, 0x0f0f0f0f0f0f0f0f,
			0xdeadbeefdeadbeef, 0x1111111111111111, 0xcafebabecafebabe,
		}}
		fired := false
		var pattern []bool
		restore := SetProb(Gather, 0.35, src, func() { fired = true })
		defer restore()
		for i := 0; i < 12; i++ {
			fired = false
			Fire(Gather)
			pattern = append(pattern, fired)
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire pattern diverged at visit %d: %v vs %v", i, a, b)
		}
	}
	any := false
	for _, f := range a {
		any = any || f
	}
	if !any {
		t.Fatal("scripted pattern never fired; test variates are wrong")
	}
}
