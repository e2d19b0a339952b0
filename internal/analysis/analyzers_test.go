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

func TestGrouped(t *testing.T) {
	analysistest.Run(t, analysis.Grouped, "testdata/src/grouped/a")
}

func TestFaultSite(t *testing.T) {
	analysistest.Run(t, analysis.FaultSite, "testdata/src/faultsite/a")
}

// TestRegistry pins the analyzer catalogue: exactly these seven
// project-specific analyzers, in this order, addressable by name.
func TestRegistry(t *testing.T) {
	want := []string{"ctxpoll", "nopanic", "determinism", "obsnames", "errchecklite", "grouped", "faultsite"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if analysis.ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
}
