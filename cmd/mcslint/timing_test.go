package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/analysis"
)

// lintBudget pins the wall-time cost of the full suite over ./... so
// analyzer growth cannot silently slow CI: ten analyzers over every
// package, including the CFG dataflow passes, must finish well inside
// it. The budget is deliberately loose against a quiet machine (the
// suite runs in a few seconds) and tight against the failure mode it
// guards — an accidentally quadratic analyzer or a loader regression
// that re-type-checks the stdlib per pattern turns minutes, not
// seconds.
const lintBudget = 90 * time.Second

func TestFullSuiteUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint timing is not a -short test")
	}

	// The test's working directory is cmd/mcslint, so name the module
	// root explicitly to cover every package.
	root := moduleRootFromWd(t)

	start := time.Now()
	var out, errb bytes.Buffer
	code := run([]string{"-strict-allow", root + "/..."}, &out, &errb)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("mcslint ./... exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if elapsed > lintBudget {
		t.Fatalf("full suite took %v, budget %v: an analyzer or the loader regressed", elapsed, lintBudget)
	}
	t.Logf("full suite over ./... in %v (budget %v)", elapsed, lintBudget)

	// A second run in the same process must come back nearly free: the
	// loader cache keyed by module root keeps every type-checked
	// package warm, and re-running the analyzers alone is cheap. A
	// rerun that costs anything close to the first run means NewLoader
	// stopped returning the cached instance.
	start = time.Now()
	out.Reset()
	errb.Reset()
	if code := run([]string{"-strict-allow", root + "/..."}, &out, &errb); code != 0 {
		t.Fatalf("second run exit = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	rerun := time.Since(start)
	if rerun > elapsed/2+time.Second {
		t.Fatalf("warm rerun took %v vs cold %v: loader cache not shared across NewLoader calls", rerun, elapsed)
	}
	t.Logf("warm rerun in %v", rerun)
}

// TestLoaderSharedAcrossInstances pins the cache contract directly:
// NewLoader for the same module root returns the same instance.
func TestLoaderSharedAcrossInstances(t *testing.T) {
	root := moduleRootFromWd(t)
	a, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("NewLoader returned distinct loaders for the same module root; pattern loads re-type-check everything")
	}
}

func moduleRootFromWd(t *testing.T) string {
	t.Helper()
	wd := "."
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}
