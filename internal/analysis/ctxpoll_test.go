package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// loadFunc type-checks src (a complete file) and returns the named
// function's declaration plus the type info.
func loadFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("x", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("no func %s in src", name)
	return nil, nil
}

// objOf finds the unique object named name defined in the function.
func objOf(t *testing.T, info *types.Info, fd *ast.FuncDecl, name string) types.Object {
	t.Helper()
	var found types.Object
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if obj := info.Defs[id]; obj != nil {
				found = obj
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no definition of %s", name)
	}
	return found
}

// forLoops returns the function's for statements in source order.
func forLoops(fd *ast.FuncDecl) []*ast.ForStmt {
	var loops []*ast.ForStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok {
			loops = append(loops, f)
		}
		return true
	})
	return loops
}

func TestLenTaintDeepChainAndFlow(t *testing.T) {
	fd, info := loadFunc(t, `package x
func f(xs []int) int {
	n := len(xs)
	m := n / 2
	k := m + 1
	s := 0
	for i := 0; i < k; i++ {
		s += i
	}
	c := 7
	for j := 0; j < c; j++ {
		s += j
	}
	return s
}`, "f")
	taint := lenTaint(info, fd.Body)
	for _, name := range []string{"n", "m", "k"} {
		if !taint[objOf(t, info, fd, name)] {
			t.Errorf("%s not tainted (chain depth 3)", name)
		}
	}
	for _, name := range []string{"c", "s"} {
		if taint[objOf(t, info, fd, name)] {
			t.Errorf("%s (constant-derived) wrongly tainted", name)
		}
	}
	loops := forLoops(fd)
	if len(loops) != 2 {
		t.Fatalf("want 2 loops, have %d", len(loops))
	}
	// i < k mentions k, which is tainted: data-bound.
	if !mentionsLen(info, loops[0].Cond, taint) {
		t.Error("first loop condition should mention a tainted var")
	}
	// j < c mentions only c, which is untainted: not data-bound.
	if mentionsLen(info, loops[1].Cond, taint) {
		t.Error("second loop condition should not mention tainted vars")
	}
}

func TestLenTaintClosureFallback(t *testing.T) {
	fd, info := loadFunc(t, `package x
func f(xs []int) int {
	n := 0
	get := func() { n = len(xs) }
	get()
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	taint := lenTaint(info, fd.Body)
	if !taint[objOf(t, info, fd, "n")] {
		t.Error("closure-assigned n should be tainted")
	}
	loops := forLoops(fd)
	if len(loops) != 1 || !mentionsLen(info, loops[0].Cond, taint) {
		t.Error("loop bounded by closure-assigned n should be data-bound")
	}
}
