package mergesort_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// Audit tests for the paper kernel's offset-value coding
// (internal/mergesort/paper). The audit (paper.AuditOVC) re-checks every
// code-resolved loser-tree comparison against the full keys while the
// trees run the real merge paths, so a single stale code anywhere in
// build, replay, or re-derive shows up as a mismatch count.

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

// withOVCAudit runs f with the audit armed and fails the test if any
// code verdict contradicted the full keys. It returns the audit counts.
func withOVCAudit(t *testing.T, f func()) paper.OVCAudit {
	t.Helper()
	a := paper.AuditOVC(f)
	if a.Mismatches != 0 {
		t.Fatalf("%d OVC comparisons contradicted the full keys", a.Mismatches)
	}
	return a
}

// forcePhase3 plugs in the paper kernel, configured by pp, with its
// in-cache run target lowered so phase 3 (the only OVC consumer in the
// sequential sort) always runs on test-sized inputs.
func forcePhase3(bank int, pp paper.Params) Params {
	pp.InCacheElems, pp.Fanout = 64, 4
	return paperKernel(Params{}, pp)
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
			mustSort(t, bank, wantK, wantO, forcePhase3(bank, paper.Params{DisableOVC: true}))

			gotK := append([]uint64(nil), keys...)
			a := withOVCAudit(t, func() {
				mustSort(t, bank, gotK, gotO, forcePhase3(bank, paper.Params{}))
			})
			// A tie-only merge resolves nothing by comparison: the
			// code-0 replay skip claims whole stretches instead.
			if a.Resolved == 0 && a.Skips == 0 {
				t.Errorf("%s bank=%d: no comparisons resolved or skipped by codes", name, bank)
			}
			if name == "allequal" {
				if fb := a.Fallbacks; fb != 0 {
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

// TestOVCAuditParallelMerge audits the packed merge, paper.MergePacked:
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
			a := withOVCAudit(t, func() {
				mustMergePacked(t, bank, gotK, gotO, runs, paper.Params{})
			})
			// Duplicate-heavy inputs may bypass comparisons entirely via
			// the code-0 replay skip; either a code verdict or a skipped
			// replay proves codes were live.
			if a.Resolved == 0 && a.Skips == 0 {
				t.Errorf("%s bank=%d: no comparisons resolved or skipped by codes", name, bank)
			}
			if name == "allequal" {
				if fb := a.Fallbacks; fb != 0 {
					t.Errorf("allequal bank=%d: %d key-byte fallbacks, want 0", bank, fb)
				}
				if sk := a.Skips; sk == 0 {
					t.Errorf("allequal bank=%d: code-0 fast path never fired", bank)
				}
			}
			checkMerged(t, fmt.Sprintf("%s bank=%d", name, bank), gotK, gotO, wantK, wantO)
		}
	}
}

// TestOVCAuditParallelSort audits the paper kernel's parallel sort,
// whose chunk merge (faultinject.LoserMerge) the hook reaches from
// ParallelMinRows rows on.
func TestOVCAuditParallelSort(t *testing.T) {
	const n = ParallelMinRows
	for _, bank := range Banks {
		for name, keys := range ovcInputs(n, bank, 131+int64(bank)) {
			wantK := append([]uint64(nil), keys...)
			wantO := make([]uint32, n)
			for i := range wantO {
				wantO[i] = uint32(i)
			}
			mustParallelSort(t, bank, wantK, wantO, forcePhase3(bank, paper.Params{DisableOVC: true}), 4)
			for _, w := range []int{2, 8} {
				gotK := append([]uint64(nil), keys...)
				gotO := make([]uint32, n)
				for i := range gotO {
					gotO[i] = uint32(i)
				}
				if chunkMerges(func() {
					withOVCAudit(t, func() {
						mustParallelSort(t, bank, gotK, gotO, forcePhase3(bank, paper.Params{}), w)
					})
				}) == 0 {
					t.Fatalf("%s bank=%d workers=%d: the chunk merge never ran", name, bank, w)
				}
				for i := range gotK {
					if gotK[i] != wantK[i] || gotO[i] != wantO[i] {
						t.Fatalf("%s bank=%d workers=%d: diverges at %d", name, bank, w, i)
					}
				}
			}
		}
	}
}
