package simd

import (
	"testing"
	"testing/quick"
)

func lanes16(w uint64) [4]uint16 {
	return [4]uint16{uint16(w), uint16(w >> 16), uint16(w >> 32), uint16(w >> 48)}
}

func lanes32(w uint64) [2]uint32 {
	return [2]uint32{uint32(w), uint32(w >> 32)}
}

func TestGE16MatchesScalar(t *testing.T) {
	f := func(x, y uint64) bool {
		m := GE16(x, y)
		xs, ys, ms := lanes16(x), lanes16(y), lanes16(m)
		for i := range xs {
			want := uint16(0)
			if xs[i] >= ys[i] {
				want = 0xFFFF
			}
			if ms[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestGE16Ties(t *testing.T) {
	// Equal lanes must report >= (mask set), so min/max keep a stable pairing.
	x := uint64(7 | 0xFFFF<<32 | 123<<48) // lanes 7, 0, 0xFFFF, 123
	if m := GE16(x, x); m != ^uint64(0) {
		t.Fatalf("GE16(x,x) = %#x, want all ones", m)
	}
}

func TestGE32MatchesScalar(t *testing.T) {
	f := func(x, y uint64) bool {
		m := GE32(x, y)
		xs, ys, ms := lanes32(x), lanes32(y), lanes32(m)
		for i := range xs {
			want := uint32(0)
			if xs[i] >= ys[i] {
				want = 0xFFFFFFFF
			}
			if ms[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestGE64Boundaries(t *testing.T) {
	cases := []struct {
		x, y uint64
		ge   bool
	}{
		{0, 0, true},
		{1, 0, true},
		{0, 1, false},
		{^uint64(0), 0, true},
		{0, ^uint64(0), false},
		{^uint64(0), ^uint64(0), true},
		{1 << 63, (1 << 63) - 1, true},
	}
	for _, c := range cases {
		got := GE64(c.x, c.y) == ^uint64(0)
		if got != c.ge {
			t.Errorf("GE64(%d,%d) = %v, want %v", c.x, c.y, got, c.ge)
		}
	}
}

func TestExpand16(t *testing.T) {
	// Each of the 16 subsets of set lanes must expand consistently.
	for bitsSet := 0; bitsSet < 16; bitsSet++ {
		var m uint64
		for l := 0; l < 4; l++ {
			if bitsSet&(1<<l) != 0 {
				m |= 0xFFFF << (16 * l)
			}
		}
		lo, hi := Expand16Lo(m), Expand16Hi(m)
		los, his := lanes32(lo), lanes32(hi)
		for l := 0; l < 4; l++ {
			want := uint32(0)
			if bitsSet&(1<<l) != 0 {
				want = 0xFFFFFFFF
			}
			var got uint32
			if l < 2 {
				got = los[l]
			} else {
				got = his[l-2]
			}
			if got != want {
				t.Fatalf("expand lanes=%04b lane %d: got %#x want %#x", bitsSet, l, got, want)
			}
		}
	}
}

func TestReverse16(t *testing.T) {
	w := uint64(1 | 2<<16 | 3<<32 | 4<<48)
	r := lanes16(Reverse16(w))
	if r != [4]uint16{4, 3, 2, 1} {
		t.Fatalf("Reverse16 = %v", r)
	}
	f := func(x uint64) bool { return Reverse16(Reverse16(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverse32(t *testing.T) {
	w := uint64(10 | 20<<32)
	if got := lanes32(Reverse32(w)); got != [2]uint32{20, 10} {
		t.Fatalf("Reverse32 = %v", got)
	}
}

func TestBlend(t *testing.T) {
	x, y := uint64(0xAAAAAAAAAAAAAAAA), uint64(0x5555555555555555)
	if Blend(0, x, y) != y {
		t.Error("empty mask must select y")
	}
	if Blend(^uint64(0), x, y) != x {
		t.Error("full mask must select x")
	}
	if got := Blend(low32, x, y); got != (x&low32)|(y&^uint64(low32)) {
		t.Errorf("partial blend = %#x", got)
	}
}
