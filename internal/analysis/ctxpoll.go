package analysis

import (
	"go/ast"
	"go/types"
)

// CtxPoll enforces the pipeline's cancellation contract: a function
// that accepts a context.Context and loops over data-length-derived
// bounds must poll cancellation from inside the loop — directly via
// ctx.Err()/ctx.Done(), or by delegating to another context-taking
// call (which is then itself obliged to poll). Without a poll, a
// cancelled 100M-row sort keeps burning CPU until the pass finishes,
// which is exactly the regression the cancellation battery exists to
// prevent (docs/robustness.md).
//
// A loop is "data-bound" when it ranges over a slice, map, channel, or
// string; ranges over a non-constant integer; has no condition (for
// {}); or its condition mentions len()/cap() or a variable derived
// from one. Constant-bound loops (fixed arrays, literal counts,
// worker/bank counts) are exempt: their trip count is independent of
// input size.
//
// Loops nested under a polling loop are also exempt: the repo's
// canonical chunked pattern polls once per stride in the outer loop
// and lets the inner loop burn through one bounded chunk, which keeps
// the cancellation latency at one chunk rather than one full pass.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "context-taking functions must poll ctx in data-bound loops",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || len(ctxParams(info, ft)) == 0 {
				return true
			}
			checkCtxFunc(pass, n, body)
			return true
		})
	}
	return nil
}

// checkCtxFunc inspects one context-taking function. The walk descends
// into function literals that capture the enclosing context but not
// into ones that declare their own context parameter (those are
// separate ctxpoll subjects, visited by the outer Inspect). It carries
// an enclosing-poll flag: once a loop's body polls, every loop nested
// under it is chunk-bounded by that poll and exempt.
// Every loop is classified against the function's lenTaint set.
func checkCtxFunc(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	taint := lenTaint(info, body)
	var walk func(root ast.Node, polledEnclosing bool)
	handleLoop := func(loop ast.Node, loopBody *ast.BlockStmt, dataBound, polledEnclosing bool) {
		polls := pollsCtx(info, loopBody)
		if dataBound && !polls && !polledEnclosing {
			pass.Reportf(loop.Pos(), "data-bound loop in %s does not poll ctx (no ctx.Err/ctx.Done or context-taking call in body)", funcName(fn))
		}
		walk(loopBody, polledEnclosing || polls)
	}
	walk = func(root ast.Node, polledEnclosing bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == root {
				return true
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return len(ctxParams(info, x.Type)) == 0
			case *ast.RangeStmt:
				handleLoop(x, x.Body, rangeIsDataBound(info, x, taint), polledEnclosing)
				return false
			case *ast.ForStmt:
				handleLoop(x, x.Body, forIsDataBound(info, x, taint), polledEnclosing)
				return false
			}
			return true
		})
	}
	walk(body, false)
}

func rangeIsDataBound(info *types.Info, loop *ast.RangeStmt, lenVars map[types.Object]bool) bool {
	tv, ok := info.Types[loop.X]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil {
		return false // constant trip count (for range 16)
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch t := t.(type) {
	case *types.Array:
		return false // fixed-size: trip count is compile-time constant
	case *types.Basic:
		// Integer-typed range: data-bound only when the bound is
		// length-derived, mirroring the ForStmt condition rule.
		if t.Info()&types.IsInteger != 0 {
			return mentionsLen(info, loop.X, lenVars)
		}
		// Strings are data.
		return t.Info()&types.IsString != 0
	default:
		return true // slice, map, channel
	}
}

func forIsDataBound(info *types.Info, loop *ast.ForStmt, lenVars map[types.Object]bool) bool {
	if loop.Cond == nil {
		return true // for {}: unbounded, must poll (or select on ctx.Done)
	}
	return mentionsLen(info, loop.Cond, lenVars)
}

// lenTaint returns the variables of body whose value derives from
// len()/cap() of something. It is a fixpoint over every assignment and
// var declaration in the function, function literals included, so a
// derivation chain of any depth (n := len(xs); m := n/2; k := m+1)
// taints every link, and a bound a closure assigns taints the loop
// that reads it. The set is flow-insensitive and gen-only: a variable
// that any assignment makes a length bound is one at every loop, even
// one that runs before the assignment or after a reassignment to a
// constant, because its role in the function is a length bound.
func lenTaint(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident) {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && !tainted[obj] {
				tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if anyMentionsLen(info, x.Rhs, tainted) {
					for _, lhs := range x.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			case *ast.ValueSpec:
				if anyMentionsLen(info, x.Values, tainted) {
					for _, id := range x.Names {
						mark(id)
					}
				}
			}
			return true
		})
	}
	return tainted
}

func anyMentionsLen(info *types.Info, es []ast.Expr, tainted map[types.Object]bool) bool {
	for _, e := range es {
		if mentionsLen(info, e, tainted) {
			return true
		}
	}
	return false
}

// mentionsLen reports whether e contains a len()/cap() call or a
// reference to a variable in tainted.
func mentionsLen(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					found = true
				}
			}
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// pollsCtx reports whether the loop body contains a cancellation poll:
// a ctx.Err()/ctx.Done() call on a context-typed receiver, or any call
// that forwards a context (delegation — the callee owns the polling
// obligation).
func pollsCtx(info *types.Info, body ast.Node) bool {
	polled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if polled {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Err" || sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok && tv.Type != nil && isContextType(tv.Type) {
					polled = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
				polled = true
				return false
			}
		}
		return true
	})
	return polled
}
