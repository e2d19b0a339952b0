package paper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The fence around the paper kernel: it is measurement apparatus, so
// only the apparatus may import it, and neither the production sort
// stack nor a production binary may link it. The tests read the import
// clauses of every non-test Go file in the module.

const modulePath = "repro"

// paperImporters are the only places outside this package that may
// import it: the figure experiments, which also hold cost-model
// calibration.
var paperImporters = []string{"internal/experiments/"}

// TestOnlyApparatusImportsPaper fails when a non-test file outside this
// package and paperImporters imports it.
func TestOnlyApparatusImportsPaper(t *testing.T) {
	self := modulePath + "/internal/mergesort/paper"
	for file, imports := range moduleImports(t) {
		if strings.HasPrefix(file, "internal/mergesort/paper/") || allowedImporter(file) {
			continue
		}
		for _, imp := range imports {
			if imp == self {
				t.Errorf("%s imports %s: only the experiments may", file, self)
			}
		}
	}
}

func allowedImporter(file string) bool {
	for _, p := range paperImporters {
		if file == p || strings.HasSuffix(p, "/") && strings.HasPrefix(file, p) {
			return true
		}
	}
	return false
}

// TestMcsortDoesNotLinkPaper walks the in-module imports of
// internal/mcsort — what `go list -deps ./internal/mcsort` lists — and
// fails if they reach this package, or the SIMD register model and the
// cache detection only this package's kernels use.
func TestMcsortDoesNotLinkPaper(t *testing.T) {
	assertNotLinked(t, "internal/mcsort", "internal/mergesort/paper", "internal/simd", "internal/hw")
}

// TestProductionDoesNotLinkPaper pins the binary fence: the daemon, its
// client, the public library packages and mcsplan, which explains the
// daemon's plan choice, price plans with a fixed or loaded cost model and
// never calibrate, so neither this package, nor the cache detection
// calibration uses, nor the experiments — which hold calibration, this
// kernel's cost term and the paper's baseline searches (RRS and the plan
// enumerator) — is linked into them.
func TestProductionDoesNotLinkPaper(t *testing.T) {
	for _, root := range []string{"cmd/mcsd", "cmd/mcsquery", "cmd/mcsplan", "mcs", "colstore"} {
		assertNotLinked(t, root, "internal/mergesort/paper", "internal/hw", "internal/experiments")
	}
}

// assertNotLinked walks the in-module imports of root (a directory
// relative to the module root) and fails if they reach a banned one.
func assertNotLinked(t *testing.T, root string, banned ...string) {
	t.Helper()
	deps := moduleDeps(t, root)
	for _, b := range banned {
		if deps[modulePath+"/"+b] {
			t.Errorf("%s depends on %s", root, b)
		}
	}
}

// moduleDeps returns the in-module packages root (a directory relative
// to the module root) imports, directly or not, root included.
func moduleDeps(t *testing.T, root string) map[string]bool {
	t.Helper()
	byPkg := map[string][]string{}
	for file, imports := range moduleImports(t) {
		pkg := modulePath + "/" + filepath.Dir(file)
		byPkg[pkg] = append(byPkg[pkg], imports...)
	}
	deps := map[string]bool{}
	var walk func(pkg string)
	walk = func(pkg string) {
		if deps[pkg] {
			return
		}
		deps[pkg] = true
		for _, imp := range byPkg[pkg] {
			if strings.HasPrefix(imp, modulePath+"/") {
				walk(imp)
			}
		}
	}
	walk(modulePath + "/" + root)
	if !deps[modulePath+"/internal/mergesort"] {
		t.Fatalf("the import walk from %s never reached internal/mergesort: it reads the wrong files", root)
	}
	return deps
}

// TestDaemonHasNoPairMerge pins that the daemon merges sorted runs of
// words only: no non-test function in cmd/mcsd's in-module dependencies
// takes runs of keys beside runs of payloads ([][]uint64 and
// [][]uint32) — the pair form of the merge, which only this package's
// chunk merge keeps. The same detector must find that chunk merge here,
// so that it cannot pass by reading nothing.
func TestDaemonHasNoPairMerge(t *testing.T) {
	root := moduleRoot(t)
	for pkg := range moduleDeps(t, "cmd/mcsd") {
		for _, fn := range pairMerges(t, filepath.Join(root, strings.TrimPrefix(pkg, modulePath+"/"))) {
			t.Errorf("%s: %s merges (key, payload) runs", pkg, fn)
		}
	}
	if got := pairMerges(t, filepath.Join(root, "internal/mergesort/paper")); !slices.Contains(got, "mergeChunks") {
		t.Errorf("the detector finds %v in the paper kernel, want mergeChunks among them", got)
	}
}

// pairMerges names the functions of the non-test Go files in dir whose
// parameters include both a [][]uint64 and a [][]uint32.
func pairMerges(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			seen := map[string]bool{}
			for _, field := range fn.Type.Params.List {
				seen[types.ExprString(field.Type)] = true
			}
			if seen["[][]uint64"] && seen["[][]uint32"] {
				found = append(found, fn.Name.Name)
			}
		}
	}
	return found
}

// moduleImports returns the import paths of every non-test Go file in
// the module, keyed by the file's slash-separated path from the module
// root. testdata, vendor and hidden directories are skipped, as the go
// tool skips them.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	root := moduleRoot(t)
	files := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		var imports []string
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			imports = append(imports, imp)
		}
		files[filepath.ToSlash(rel)] = imports
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
