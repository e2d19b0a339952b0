package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism guards the pipeline's byte-identical-output contract
// (the worker-count determinism tests in mcsort and mergesort): in
// library code,
//
//  1. a `range` over a map may not feed an ordered output — appending
//     to a slice, writing through an index, sending on a channel, or
//     printing inside the loop body makes the result depend on Go's
//     randomized map iteration order. Collect-then-sort is the
//     sanctioned pattern and is recognized: an append whose target is
//     passed to a sort.*/slices.Sort* call later in the same function
//     is exempt, because the sort erases the iteration order before
//     anyone observes it;
//  2. math/rand's and math/rand/v2's package-level functions may not
//     be used: they draw from a global source seeded at random on
//     every run. Randomness goes through a generator built with the
//     packages' New* constructors from a caller-pinned seed.
//
// Main packages (cmd/, examples/) are exempt.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no order-dependent map iteration or global math/rand draws in library code",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !pass.IsLibrary() {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if obj := info.Uses[sel.Sel]; drawsGlobalRand(obj) {
					pass.Reportf(sel.Pos(), "%s.%s draws from the auto-seeded global source: output changes run to run; draw from rand.New with a pinned seed", obj.Pkg().Path(), obj.Name())
				}
			}
			return true
		})
		// Map-range checks run per function declaration so the
		// collect-then-sort exemption can search the rest of the body.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				x, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRange(info, x) {
					return true
				}
				op, target := orderedOutputIn(info, x.Body)
				if op == "" {
					return true
				}
				if op == "append" && target != nil && sortedAfter(info, fd.Body, target, x.End()) {
					return true // collect-then-sort: sanctioned
				}
				pass.Reportf(x.Pos(), "map iteration order reaches an ordered output (%s in loop body): collect and sort instead", op)
				return true
			})
		}
	}
	return nil
}

// drawsGlobalRand reports whether obj is a package-level function of
// math/rand or math/rand/v2 other than a New* constructor: every such
// function reads or reseeds the global source.
func drawsGlobalRand(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !(objFromPkg(fn, "math/rand") || objFromPkg(fn, "math/rand/v2")) {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New")
}

// sortedAfter reports whether scope contains, after pos, a call to a
// sort.* or slices.Sort* function taking an argument that renders to
// the same expression as target — the second half of collect-then-
// sort, which erases the map iteration order before it is observed.
func sortedAfter(info *types.Info, scope ast.Node, target ast.Expr, pos token.Pos) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := info.Uses[sel.Sel]
		if !objFromPkg(obj, "sort") && !(objFromPkg(obj, "slices") && strings.HasPrefix(sel.Sel.Name, "Sort")) {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == want {
				found = true
			}
		}
		return !found
	})
	return found
}

func isMapRange(info *types.Info, loop *ast.RangeStmt) bool {
	tv, ok := info.Types[loop.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	_, isMap := t.(*types.Map)
	return isMap
}

// orderedOutputIn looks for operations inside a map-range body whose
// result depends on iteration order: append, indexed writes, channel
// sends, and direct printing/writing. For append it also returns the
// appended-to expression so the caller can apply the collect-then-sort
// exemption.
func orderedOutputIn(info *types.Info, body *ast.BlockStmt) (string, ast.Expr) {
	var op string
	var target ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		if op != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
					op = "append"
					if len(x.Args) > 0 {
						target = x.Args[0]
					}
				}
			case *ast.SelectorExpr:
				obj := info.Uses[fun.Sel]
				name := fun.Sel.Name
				if objFromPkg(obj, "fmt") && (name == "Print" || name == "Println" || name == "Printf" ||
					name == "Fprint" || name == "Fprintln" || name == "Fprintf") {
					op = "fmt." + name
				} else if name == "Write" || name == "WriteString" || name == "WriteByte" {
					op = name
				}
			}
		case *ast.SendStmt:
			op = "channel send"
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				// A write into a map is keyed, not positional: every
				// iteration order produces the same final map. Only
				// slice/array element writes observe the order.
				if tv, ok := info.Types[idx.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						continue
					}
				}
				op = "indexed write"
			}
		}
		return op == ""
	})
	return op, target
}
