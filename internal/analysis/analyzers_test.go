package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestCtxPoll(t *testing.T) {
	analysistest.Run(t, analysis.CtxPoll, "testdata/src/ctxpoll/a")
}

// TestCtxPollServerPatterns pins the serving-layer shapes: a job-table
// sweep in a context-taking method must poll, an admission wait must
// select on ctx.Done.
func TestCtxPollServerPatterns(t *testing.T) {
	analysistest.Run(t, analysis.CtxPoll, "testdata/src/ctxpoll/server")
}

func TestNoPanic(t *testing.T) {
	analysistest.Run(t, analysis.NoPanic, "testdata/src/nopanic/a")
}

func TestNoPanicExemptsMainPackages(t *testing.T) {
	analysistest.RunClean(t, analysis.NoPanic, "testdata/src/nopanic/mainpkg")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.Determinism, "testdata/src/determinism/a")
}

func TestObsNames(t *testing.T) {
	analysistest.Run(t, analysis.ObsNames, "testdata/src/obsnames/a")
}

func TestErrCheckLite(t *testing.T) {
	analysistest.Run(t, analysis.ErrCheckLite, "testdata/src/errchecklite/a")
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, analysis.AtomicMix, "testdata/src/atomicmix/a")
}

func TestGoroutineCapture(t *testing.T) {
	analysistest.Run(t, analysis.GoroutineCapture, "testdata/src/goroutinecapture/a")
}

// TestGoroutineCaptureDisjoint pins the canonical chunked-write shape:
// workers writing bounds[w]:bounds[w+1] ranges must NOT be flagged.
func TestGoroutineCaptureDisjoint(t *testing.T) {
	analysistest.RunClean(t, analysis.GoroutineCapture, "testdata/src/goroutinecapture/disjoint")
}

func TestGrouped(t *testing.T) {
	analysistest.Run(t, analysis.Grouped, "testdata/src/grouped/a")
}

func TestFaultSite(t *testing.T) {
	analysistest.Run(t, analysis.FaultSite, "testdata/src/faultsite/a")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotAlloc, "testdata/src/hotalloc/a")
}

// TestHotAllocColdPaths pins the CFG exemptions: allocations on paths
// that do not re-reach the loop head (early return, labeled break) and
// loops that are not data-bound stay clean.
func TestHotAllocColdPaths(t *testing.T) {
	analysistest.RunClean(t, analysis.HotAlloc, "testdata/src/hotalloc/cold")
}

// TestRegistry pins the analyzer catalogue: the issue contract is
// ten project-specific analyzers, addressable by name.
func TestRegistry(t *testing.T) {
	all := analysis.All()
	if len(all) < 10 {
		t.Fatalf("All() = %d analyzers, want >= 10", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if analysis.ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
	for _, want := range []string{
		"ctxpoll", "nopanic", "determinism", "obsnames", "errchecklite",
		"atomicmix", "goroutinecapture", "grouped", "faultsite", "hotalloc",
	} {
		if !seen[want] {
			t.Errorf("analyzer %q missing from All()", want)
		}
	}
}
