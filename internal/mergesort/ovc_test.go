package mergesort

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property and audit tests for offset-value coding (ovc.go). The audit
// battery re-checks every code-resolved loser-tree comparison against
// the full keys while the trees run the real merge paths, so a single
// stale code anywhere in build, replay, or re-derive shows up as a
// mismatch count.

// ovcInputs are the adversarial distributions of the OVC battery:
// all-equal (every comparison resolves at code 0), run-length-skewed
// (a few huge tie runs among unique keys), and single-distinct-byte
// (keys differ in exactly one byte position, so every nonzero code
// shares its offset and the value byte alone must decide).
func ovcInputs(n, bank int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := maskFor(bank)
	in := map[string][]uint64{
		"allequal":  make([]uint64, n),
		"runskewed": make([]uint64, n),
		"onebyte":   make([]uint64, n),
		"uniform":   make([]uint64, n),
	}
	for i := range in["allequal"] {
		in["allequal"][i] = 42 & mask
	}
	for i := 0; i < n; {
		v := rng.Uint64() & mask
		runLen := 1
		if rng.Intn(4) == 0 {
			runLen = 1 + rng.Intn(n/4+1)
		}
		for j := 0; j < runLen && i < n; j++ {
			in["runskewed"][i] = v
			i++
		}
	}
	shift := uint(8 * rng.Intn(bank/8))
	for i := range in["onebyte"] {
		in["onebyte"][i] = (uint64(rng.Intn(256)) << shift) & mask
	}
	for i := range in["uniform"] {
		in["uniform"][i] = rng.Uint64() & mask
	}
	return in
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

// withOVCAudit runs f with the audit instrumentation armed and fails
// the test if any code verdict contradicted the full keys. It returns
// the (resolved, fallback) counter values.
func withOVCAudit(t *testing.T, f func()) (int64, int64) {
	t.Helper()
	ovcAuditReset()
	ovcAuditEnabled = true
	defer func() { ovcAuditEnabled = false }()
	f()
	if m := ovcAuditMismatches.Load(); m != 0 {
		t.Fatalf("%d OVC comparisons contradicted the full keys", m)
	}
	return ovcAuditResolved.Load(), ovcAuditFallbacks.Load()
}

// forcePhase3 selects the paper kernel and lowers its in-cache run
// target so phase 3 (the only OVC consumer in the sequential sort)
// always runs on test-sized inputs.
func forcePhase3(bank int) Params {
	p := testParams(bank)
	p.PaperKernel = true
	p.InCacheElems = 64
	p.Fanout = 4
	return p
}

func TestOVCAuditSequentialSort(t *testing.T) {
	const n = 3000
	for _, bank := range Banks {
		for name, keys := range ovcInputs(n, bank, int64(bank)) {
			wantK := append([]uint64(nil), keys...)
			wantO := make([]uint32, n)
			gotO := make([]uint32, n)
			for i := range wantO {
				wantO[i], gotO[i] = uint32(i), uint32(i)
			}
			off := forcePhase3(bank)
			off.DisableOVC = true
			mustSort(t, bank, wantK, wantO, off)

			gotK := append([]uint64(nil), keys...)
			resolved, _ := withOVCAudit(t, func() {
				mustSort(t, bank, gotK, gotO, forcePhase3(bank))
			})
			// A tie-only merge resolves nothing by comparison: the
			// code-0 replay skip claims whole stretches instead.
			if resolved == 0 && ovcAuditSkips.Load() == 0 {
				t.Errorf("%s bank=%d: no comparisons resolved or skipped by codes", name, bank)
			}
			if name == "allequal" {
				if fb := ovcAuditFallbacks.Load(); fb != 0 {
					t.Errorf("allequal bank=%d: %d key-byte fallbacks, want 0", bank, fb)
				}
			}
			for i := range gotK {
				if gotK[i] != wantK[i] || gotO[i] != wantO[i] {
					t.Fatalf("%s bank=%d: OVC sort diverges from plain at %d", name, bank, i)
				}
			}
		}
	}
}

// TestOVCAuditParallelMerge audits the packed merge, MergePackedContext:
// every code verdict must agree with the full keys, and the output must
// be the stable oracle's.
func TestOVCAuditParallelMerge(t *testing.T) {
	const n = 3000
	for _, bank := range Banks {
		for name, keys := range ovcInputs(n, bank, 97+int64(bank)) {
			oids := make([]uint32, n)
			for i := range oids {
				oids[i] = uint32(i)
			}
			k := append([]uint64(nil), keys...)
			runs := sortedRuns(k, oids, 7)
			wantK, wantO := mergeOracle(k, oids, runs)
			gotK := append([]uint64(nil), k...)
			gotO := append([]uint32(nil), oids...)
			resolved, _ := withOVCAudit(t, func() {
				mustMergePacked(t, bank, gotK, gotO, runs, Params{})
			})
			// Duplicate-heavy inputs may bypass comparisons entirely via
			// the code-0 replay skip; either a code verdict or a skipped
			// replay proves codes were live.
			if resolved == 0 && ovcAuditSkips.Load() == 0 {
				t.Errorf("%s bank=%d: no comparisons resolved or skipped by codes", name, bank)
			}
			if name == "allequal" {
				if fb := ovcAuditFallbacks.Load(); fb != 0 {
					t.Errorf("allequal bank=%d: %d key-byte fallbacks, want 0", bank, fb)
				}
				if sk := ovcAuditSkips.Load(); sk == 0 {
					t.Errorf("allequal bank=%d: code-0 fast path never fired", bank)
				}
			}
			checkMerged(t, fmt.Sprintf("%s bank=%d", name, bank), gotK, gotO, wantK, wantO)
		}
	}
}

func TestOVCAuditParallelSort(t *testing.T) {
	const n = 5000
	for _, bank := range Banks {
		for name, keys := range ovcInputs(n, bank, 131+int64(bank)) {
			wantK := append([]uint64(nil), keys...)
			wantO := make([]uint32, n)
			for i := range wantO {
				wantO[i] = uint32(i)
			}
			off := forcePhase3(bank)
			off.DisableOVC = true
			mustParallelSort(t, bank, wantK, wantO, off, 4)
			canonicalOids(wantK, wantO)
			for _, w := range []int{2, 8} {
				gotK := append([]uint64(nil), keys...)
				gotO := make([]uint32, n)
				for i := range gotO {
					gotO[i] = uint32(i)
				}
				withOVCAudit(t, func() {
					mustParallelSort(t, bank, gotK, gotO, forcePhase3(bank), w)
				})
				canonicalOids(gotK, gotO)
				for i := range gotK {
					if gotK[i] != wantK[i] || gotO[i] != wantO[i] {
						t.Fatalf("%s bank=%d workers=%d: diverges at %d", name, bank, w, i)
					}
				}
			}
		}
	}
}
