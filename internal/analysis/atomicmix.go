package analysis

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/cfg"
)

// AtomicMix catches the memory-model bug the race detector only finds
// when a test happens to interleave: a variable accessed through
// sync/atomic free functions in one place and with plain loads/stores
// in another. Mixed access has no happens-before edge — the plain side
// can observe torn or stale values regardless of how careful the
// atomic side is. Once any `&x` is passed to an atomic.Load/Store/
// Add/Swap/CompareAndSwap call, every other access to x must be:
//
//   - another atomic call on &x, or
//   - under a mutex that is held on every path to the access (the
//     must-locked CFG dataflow from the cfg subpackage decides; a
//     lock-guarded slow path mixed with an atomic fast path is a
//     sanctioned pattern only when the atomic side is the only
//     lock-free one), or
//   - a composite-literal field key (S{n: 0} names the field, it does
//     not read it).
//
// The typed atomics (atomic.Uint64 and friends) are immune by
// construction — the value is unexported behind methods — which is why
// the repo prefers them; this analyzer guards the residual free-
// function uses and any future backsliding.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a variable accessed with sync/atomic must never be read or written plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	info := pass.Pkg.Info
	// Pass 1: objects whose address feeds a sync/atomic free function,
	// and the exact identifiers inside those sanctioned arguments.
	atomicObjs := map[types.Object]bool{}
	sanctioned := map[*ast.Ident]bool{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFreeCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				addr, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || addr.Op.String() != "&" {
					continue
				}
				if obj := addrTarget(info, addr.X); obj != nil {
					atomicObjs[obj] = true
				}
				ast.Inspect(addr.X, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						sanctioned[id] = true
					}
					return true
				})
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil
	}
	// Pass 2: every other use of those objects, judged per function
	// unit (function literals get their own graph — their lock state is
	// the closure's, not the spawn point's).
	for _, file := range pass.Pkg.Files {
		keys := compositeKeys(file)
		forEachFuncUnit(file, func(body *ast.BlockStmt) {
			ls := cfg.LocksHeld(info, cfg.New(body))
			inspectUnit(body, func(n ast.Node) {
				id, ok := n.(*ast.Ident)
				if !ok || sanctioned[id] || keys[id] {
					return
				}
				obj := info.Uses[id]
				if obj == nil || !atomicObjs[obj] {
					return
				}
				if ls.HeldAtPos(id) {
					return
				}
				pass.Reportf(id.Pos(), "%s is accessed with sync/atomic elsewhere in this package; a plain access has no happens-before edge and races (use the atomic ops, or hold the guarding mutex on every path here)", id.Name)
			})
		})
	}
	return nil
}

// isAtomicFreeCall recognizes a call to a sync/atomic free function
// (LoadUint64, AddInt64, ...). Methods of the typed atomics have a
// receiver and are excluded.
func isAtomicFreeCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || !objFromPkg(fn, "sync/atomic") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addrTarget resolves the variable or field object behind an &-target:
// the rightmost identifier (`n` in &s.n, `x` in &x). As with the lock
// identity in the cfg package, two instances of one struct type share
// the field object — the analyzer trades that precision for not
// needing alias analysis.
func addrTarget(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	case *ast.IndexExpr:
		return addrTarget(info, x.X)
	}
	return nil
}

// compositeKeys collects the identifiers used as struct composite-
// literal field keys in file: S{n: 0} names field n without touching
// it.
func compositeKeys(file *ast.File) map[*ast.Ident]bool {
	keys := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					keys[id] = true
				}
			}
		}
		return true
	})
	return keys
}

// forEachFuncUnit calls fn once per function unit in file: every
// FuncDecl body and every FuncLit body, each its own unit (each gets
// its own CFG).
func forEachFuncUnit(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				fn(x.Body)
			}
		case *ast.FuncLit:
			fn(x.Body)
		}
		return true
	})
}

// inspectUnit walks body without descending into nested function
// literals — those are their own units.
func inspectUnit(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
