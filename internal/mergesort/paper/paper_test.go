package paper

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Unit tests of the paper kernel's internals. Its output is held to the
// production kernel's, and its OVC to the audit, by internal/mergesort's
// batteries (TestKernelsAgree, the OVC audit tests, FuzzOVCMerge), which
// drive it through the exported API.

func TestBatcherNetworkSortsEverything(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		net := batcherNetwork(n)
		// 0-1 principle: a comparator network sorts all inputs iff it
		// sorts all 2^n binary sequences.
		for bits := 0; bits < 1<<uint(n); bits++ {
			v := make([]int, n)
			for i := range v {
				v[i] = (bits >> uint(i)) & 1
			}
			for _, c := range net {
				if v[c[0]] > v[c[1]] {
					v[c[0]], v[c[1]] = v[c[1]], v[c[0]]
				}
			}
			for i := 1; i < n; i++ {
				if v[i-1] > v[i] {
					t.Fatalf("network %d fails on pattern %b", n, bits)
				}
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, lanes := range []int{1, 2, 4} {
		n := 1003
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(64-64/lanes) // 64/lanes-bit keys
		}
		oids := make([]uint32, n)
		for i := range oids {
			oids[i] = rng.Uint32()
		}
		kw, ow := pack(keys, oids, lanes)
		outK := make([]uint64, n)
		outO := make([]uint32, n)
		unpack(kw, ow, lanes, outK, outO)
		for i := range keys {
			if outK[i] != keys[i] || outO[i] != oids[i] {
				t.Fatalf("lanes %d: round trip mismatch at %d", lanes, i)
			}
		}
	}
}

func TestPackedAccessors(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		n := 37
		kw := make([]uint64, n+wordsPerReg)
		ow := make([]uint64, n+wordsPerReg)
		width := 64 / lanes
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<uint(width) - 1
		}
		rng := rand.New(rand.NewSource(int64(lanes)))
		want := make([]uint64, n)
		wantO := make([]uint32, n)
		for i := 0; i < n; i++ {
			want[i] = rng.Uint64() & mask
			wantO[i] = rng.Uint32()
			setKeyAt(kw, i, lanes, want[i])
			setOidAt(ow, i, wantO[i])
		}
		for i := 0; i < n; i++ {
			if keyAt(kw, i, lanes) != want[i] {
				t.Fatalf("lanes %d key %d mismatch", lanes, i)
			}
			if oidAt(ow, i) != wantO[i] {
				t.Fatalf("lanes %d oid %d mismatch", lanes, i)
			}
		}
	}
}

// randomRuns builds k ascending runs of tie-heavy keys, some of them
// empty, as one-lane packed words (a key per word, so the array is its
// own packed form) with the run boundaries.
func randomRuns(rng *rand.Rand, k int) ([]uint64, []int) {
	var keys []uint64
	runs := []int{0}
	for r := 0; r < k; r++ {
		run := make([]uint64, rng.Intn(4)*rng.Intn(20)) // empty about one time in four
		for i := range run {
			run[i] = rng.Uint64() % 100
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		keys = append(keys, run...)
		runs = append(runs, len(keys))
	}
	return keys, runs
}

// TestLoserTree drains the one loser tree, plain and offset-value
// coded, over full and partial trees with empty runs: the popped order
// must be the (key, run index) stable merge, position by position. The
// runs lie in index order, so that merge is the stable sort of the
// positions by key.
func TestLoserTree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		for _, k := range []int{3, 5, 8, 9} {
			keys, runs := randomRuns(rng, k)
			want := make([]uint32, len(keys))
			for i := range want {
				want[i] = uint32(i)
			}
			sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
			for _, useOVC := range []bool{false, true} {
				lt := newStableLoserTree(keys, 1, runs[:len(runs)-1], runs[1:], useOVC)
				var got []uint32
				for {
					pos, cnt, key := lt.popStretch(1 + rng.Intn(8))
					if pos < 0 {
						break
					}
					for i := 0; i < cnt; i++ {
						if keys[pos+i] != key {
							t.Fatalf("k=%d ovc=%v: stretch at %d claims key %d, element %d holds %d", k, useOVC, pos, key, pos+i, keys[pos+i])
						}
						got = append(got, uint32(pos+i))
					}
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d ovc=%v: popped %d of %d", k, useOVC, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d ovc=%v: position %d pops element %d, stable merge has %d", k, useOVC, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestOVCRelProperties(t *testing.T) {
	// Pinned examples: offset counts bytes from the low end, the value
	// is the first differing byte of the larger key.
	cases := []struct {
		key, base uint64
		want      uint32
	}{
		{0, 0, 0},
		{42, 42, 0},
		{1, 0, 1<<8 | 1},
		{0xFF, 0, 1<<8 | 0xFF},
		{0x100, 0xFF, 2<<8 | 0x01}, // carry: differs in byte 2
		{0x1234, 0x1233, 1<<8 | 0x34},
		{1 << 56, 0, 8<<8 | 1},
		{^uint64(0), 0, 8<<8 | 0xFF},
	}
	for _, c := range cases {
		if got := ovcRel(c.key, c.base); got != c.want {
			t.Errorf("ovcRel(%#x, %#x) = %#x, want %#x", c.key, c.base, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200000; trial++ {
		// Random base ≤ a, b with clustered high bits so equal and
		// near-equal keys are common.
		base := rng.Uint64() >> uint(rng.Intn(64))
		a := base + uint64(rng.Intn(1<<uint(rng.Intn(20))))
		b := base + uint64(rng.Intn(1<<uint(rng.Intn(20))))
		ca, cb := ovcRel(a, base), ovcRel(b, base)
		// Property 1: code order implies key order.
		if ca < cb && !(a < b) {
			t.Fatalf("code(%#x)=%#x < code(%#x)=%#x but keys not ordered (base %#x)", a, ca, b, cb, base)
		}
		// Property 2: two zero codes mean both equal the base.
		if ca == 0 && cb == 0 && (a != base || b != base) {
			t.Fatalf("zero codes for a=%#x b=%#x base=%#x", a, b, base)
		}
		// No-update lemma: when codes differ, the loser's code against
		// the winner equals its code against the old base.
		if ca < cb {
			if got := ovcRel(b, a); got != cb {
				t.Fatalf("no-update lemma: code(%#x, %#x)=%#x, want %#x (base %#x)", b, a, got, cb, base)
			}
		}
	}
}

// TestPaperValidation pins the package's error contract: malformed run
// bounds, mismatched slice lengths and a bank the paper does not sort in
// are plain "paper:" errors, never a panic, and the inputs are left
// untouched.
func TestPaperValidation(t *testing.T) {
	ctx := context.Background()
	keys := make([]uint64, 64)
	oids := make([]uint32, 64)
	for i := range keys {
		keys[i] = uint64(64 - i)
		oids[i] = uint32(i)
	}
	p := Params{}
	cases := []struct {
		name string
		err  error
	}{
		{"packed merge len mismatch", MergePacked(ctx, 32, keys, oids[:10], []int{0, 64}, p)},
		{"packed merge no runs", MergePacked(ctx, 32, keys, oids, nil, p)},
		{"packed merge runs past the end", MergePacked(ctx, 32, keys, oids, []int{0, 100}, p)},
		{"packed merge runs not from 0", MergePacked(ctx, 32, keys, oids, []int{8, 64}, p)},
		{"packed merge runs descending", MergePacked(ctx, 32, keys, oids, []int{0, 40, 20, 64}, p)},
		{"packed merge bank 48", MergePacked(ctx, 48, keys, oids, []int{0, 32, 64}, p)},
		{"sort bank 48", p.Sort(ctx, 48, keys, oids, 1)},
		{"parallel sort bank 48", p.Sort(ctx, 48, keys, oids, 4)},
	}
	for _, c := range cases {
		switch {
		case c.err == nil:
			t.Errorf("%s: no error", c.name)
		case !strings.HasPrefix(c.err.Error(), "paper: "):
			t.Errorf("%s: error %q lacks the paper: prefix", c.name, c.err)
		}
	}
	for i := range keys {
		if keys[i] != uint64(64-i) || oids[i] != uint32(i) {
			t.Fatalf("a rejected call modified its inputs at %d", i)
		}
	}
}
