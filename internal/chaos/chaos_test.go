package chaos

import (
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	obs.Enable() // strike counters assert through the obs registry
	os.Exit(m.Run())
}

func TestRandDeterministicAndDistinct(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identically seeded generators diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	var mn, mx = 1.0, 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		if f < mn {
			mn = f
		}
		if f > mx {
			mx = f
		}
	}
	if mn > 0.01 || mx < 0.99 {
		t.Errorf("10k draws only spanned [%v, %v]; generator looks broken", mn, mx)
	}
}

func TestRandConcurrentDrawsAreAPermutation(t *testing.T) {
	// Concurrent callers interleave one global sequence: no draw is
	// duplicated or lost.
	r := NewRand(1)
	const perG, goroutines = 1000, 8
	var mu sync.Mutex
	seen := make(map[uint64]bool, perG*goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, perG)
			for i := range local {
				local[i] = r.Uint64()
			}
			mu.Lock()
			for _, v := range local {
				if seen[v] {
					t.Error("duplicate draw under concurrency")
				}
				seen[v] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	want := make(map[uint64]bool, perG*goroutines)
	s := NewRand(1)
	for i := 0; i < perG*goroutines; i++ {
		want[s.Uint64()] = true
	}
	for v := range seen {
		if !want[v] {
			t.Fatal("concurrent draw not in the sequential sequence")
		}
	}
}

func TestStormDefaults(t *testing.T) {
	s := New(Config{})
	if s.Seed() != DefaultSeed {
		t.Errorf("zero seed not replaced: %#x", s.Seed())
	}
	if s.cfg.MaxDelay <= 0 {
		t.Error("MaxDelay default missing")
	}
	if len(s.cfg.Sites) != len(faultinject.Sites) {
		t.Errorf("default sites = %d, want all %d", len(s.cfg.Sites), len(faultinject.Sites))
	}
	if New(Config{Seed: 99}).Seed() != 99 {
		t.Error("explicit seed not kept")
	}
}

func TestArmInstallsOnlyConfiguredKinds(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	// Only delays, certain to fire: every site must strike, none may
	// panic (probability mix excludes it even where SiteKinds allows).
	s := New(Config{Seed: 5, DelayProb: 1, MaxDelay: time.Microsecond})
	disarm := s.Arm()
	if !faultinject.Enabled() {
		t.Fatal("Arm must enable the registry")
	}
	before := obsDelays.Value()
	for _, site := range faultinject.Sites {
		faultinject.Fire(site)
	}
	if got := obsDelays.Value() - before; got != int64(len(faultinject.Sites)) {
		t.Errorf("delay strikes = %d, want %d", got, len(faultinject.Sites))
	}
	disarm()
	if faultinject.Enabled() {
		t.Fatal("disarm must restore every hook")
	}
}

func TestArmZeroProbArmsNothing(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := New(Config{Seed: 5})
	disarm := s.Arm()
	defer disarm()
	if faultinject.Enabled() {
		t.Fatal("all-zero probabilities must install no hooks")
	}
}

func TestStrikePanicKind(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := New(Config{Seed: 5, PanicProb: 1})
	defer s.Arm()()
	defer func() {
		if recover() == nil {
			t.Error("panic kind did not panic")
		}
	}()
	faultinject.Fire(faultinject.ChunkSort)
}

func TestTrackAndCancelStrike(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := New(Config{Seed: 5, CancelProb: 1})
	defer s.Arm()()

	cancelled := make([]bool, 3)
	untracks := make([]func(), 3)
	for i := range cancelled {
		i := i
		untracks[i] = s.Track(func() { cancelled[i] = true })
	}
	faultinject.Fire(faultinject.Gather)
	n := 0
	for _, c := range cancelled {
		if c {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("one cancel strike cancelled %d tracked queries, want 1", n)
	}
	for _, u := range untracks {
		u()
	}
	// All untracked: further strikes are no-ops.
	faultinject.Fire(faultinject.Gather)
	n = 0
	for _, c := range cancelled {
		if c {
			n++
		}
	}
	if n != 1 {
		t.Fatal("cancel strike hit an untracked query")
	}
}

func TestSqueeze(t *testing.T) {
	s := New(Config{Seed: 5, SqueezeProb: 1})
	for i := 0; i < 100; i++ {
		b := s.Squeeze()
		if b < 4096 || b > 256<<20 {
			t.Fatalf("squeeze budget %d out of [4KiB, 256MiB]", b)
		}
	}
	if New(Config{Seed: 5}).Squeeze() != 0 {
		t.Error("zero SqueezeProb must never squeeze")
	}
}

func TestArmTwiceIsNoop(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := New(Config{Seed: 5, DelayProb: 1, MaxDelay: time.Microsecond})
	d1 := s.Arm()
	d2 := s.Arm() // no-op
	d2()
	if !faultinject.Enabled() {
		t.Fatal("second Arm's disarm must not tear down the first arming")
	}
	d1()
	if faultinject.Enabled() {
		t.Fatal("first disarm must restore")
	}
}
