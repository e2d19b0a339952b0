package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoaderResolvesIntraModuleImports(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "obs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if pkg.PkgPath != l.ModulePath+"/internal/obs" {
		t.Errorf("PkgPath = %q", pkg.PkgPath)
	}
	if pkg.Types.Scope().Lookup("NewCounter") == nil {
		t.Errorf("obs.NewCounter not in scope")
	}
	// A package that imports intra-repo packages transitively.
	eng, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "engine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.TypeErrors) > 0 {
		t.Fatalf("engine type errors: %v", eng.TypeErrors)
	}
	// Memoization: same dir returns the same *Package.
	again, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "obs"))
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Errorf("LoadDir not memoized")
	}
}

func TestExpandPatterns(t *testing.T) {
	l := newTestLoader(t)
	dirs, err := Expand(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	byRel := map[string]bool{}
	for _, d := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, d)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		byRel[rel] = true
		if strings.Contains(rel, "testdata") {
			t.Errorf("Expand descended into testdata: %s", rel)
		}
		if strings.HasPrefix(rel, ".") && rel != "." {
			t.Errorf("Expand descended into hidden dir: %s", rel)
		}
	}
	// The repo root holds only _test.go files (the benchmark harness),
	// so it is rightly absent: the loader sees no non-test sources.
	for _, want := range []string{"internal/obs", "internal/mergesort", "cmd/mcslint", "mcs"} {
		if !byRel[want] {
			t.Errorf("Expand(./...) missing %s", want)
		}
	}

	one, err := Expand(l.ModuleDir, []string{"./internal/obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || !strings.HasSuffix(filepath.ToSlash(one[0]), "internal/obs") {
		t.Errorf("Expand(./internal/obs) = %v", one)
	}

	sub, err := Expand(l.ModuleDir, []string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 { // analysis + analysistest; testdata skipped
		t.Errorf("Expand(./internal/analysis/...) = %v, want 2 dirs", sub)
	}

	if _, err := Expand(l.ModuleDir, []string{"./no/such/dir"}); err == nil {
		t.Errorf("Expand of a goless dir did not error")
	}
}

func TestRunIsDeterministicallySorted(t *testing.T) {
	l := newTestLoader(t)
	pkgs, err := l.LoadPatterns(l.ModuleDir, "./internal/analysis/testdata/src/nopanic/a", "./internal/analysis/testdata/src/determinism/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics from seeded fixtures")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}
