package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/cfg"
)

// GoroutineCapture checks the repo's canonical data-parallel shape:
// worker goroutines that write captured shared state must either hold
// a mutex or write worker-disjoint ranges. The pipeline's kernels all
// follow the disjoint-chunk pattern — worker w owns out[bounds[w] :
// bounds[w+1]] and no lock is needed — and this analyzer pins down
// what makes that pattern safe so deviations are caught:
//
//   - a plain write to a captured scalar (sum += x, s = append(s, v))
//     races unless a mutex is must-held at the write;
//   - a captured map write races even on distinct keys (map internals
//     are shared) unless a mutex is held;
//   - a captured slice element write is safe only when the index
//     derives from a worker-distinct value: a closure parameter, a
//     per-iteration loop variable of an enclosing loop (go 1.22
//     semantics), or a value received from a channel. The derivation
//     is a fixpoint over the closure body and the enclosing loop
//     bodies, so both i := lo; i < hi with lo, hi = bounds[w],
//     bounds[w+1] inside the closure and the pre-1.22 shadow idiom
//     lo, hi, w := lo, hi, w outside it are recognized as disjoint.
//
// Spawn sites considered: bare go statements with a function literal,
// and function literals passed to pipeerr.Group.Go / pipeerr.Spawn or
// to the pass driver (pipeerr.Pass.Rows / Pass.Ranges) — all run their
// literals on spawned goroutines.
var GoroutineCapture = &Analyzer{
	Name: "goroutinecapture",
	Doc:  "goroutine closures writing captured state need a mutex or worker-disjoint ranges",
	Run:  runGoroutineCapture,
}

func runGoroutineCapture(pass *Pass) error {
	if !pass.IsLibrary() {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		loops := enclosingLoopVars(info, file)
		ast.Inspect(file, func(n ast.Node) bool {
			for _, lit := range spawnLiterals(info, n) {
				checkSpawnLiteral(pass, lit, loops)
			}
			return true
		})
	}
	return nil
}

// spawnLiterals returns the function literals n spawns onto a new
// goroutine, if any: `go func(...){...}(...)` and literal arguments to
// pipeerr.Group.Go / pipeerr.Spawn / the pass driver.
func spawnLiterals(info *types.Info, n ast.Node) []*ast.FuncLit {
	switch x := n.(type) {
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
			return []*ast.FuncLit{lit}
		}
	case *ast.CallExpr:
		if pipeerrSpawn(info, x) != "" {
			var lits []*ast.FuncLit
			for _, arg := range x.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
			}
			return lits
		}
	}
	return nil
}

// loopVarScope records one loop statement's span, the variables its
// clause declares (a spawn inside the span captures them
// per-iteration), and its body — derivations in the body outside the
// closure (the classic `lo, hi, w := lo, hi, w` shadow idiom, or
// `hi := lo + chunk`) feed the worker-distinct fixpoint too.
type loopVarScope struct {
	pos, end token.Pos
	vars     []types.Object
	body     *ast.BlockStmt
}

// enclosingLoopVars collects every for/range statement in file with
// its clause-declared variables. Go 1.22 gives each iteration a fresh
// variable, so a goroutine capturing one holds a worker-distinct value.
func enclosingLoopVars(info *types.Info, file *ast.File) []loopVarScope {
	var scopes []loopVarScope
	ast.Inspect(file, func(n ast.Node) bool {
		var s loopVarScope
		switch x := n.(type) {
		case *ast.ForStmt:
			s = loopVarScope{pos: x.Pos(), end: x.End(), body: x.Body}
			if init, ok := x.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.Defs[id] != nil {
						s.vars = append(s.vars, info.Defs[id])
					}
				}
			}
		case *ast.RangeStmt:
			s = loopVarScope{pos: x.Pos(), end: x.End(), body: x.Body}
			if x.Tok == token.DEFINE {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e == nil {
						continue
					}
					if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.Defs[id] != nil {
						s.vars = append(s.vars, info.Defs[id])
					}
				}
			}
		default:
			return true
		}
		scopes = append(scopes, s)
		return true
	})
	return scopes
}

// checkSpawnLiteral analyzes one spawned closure.
func checkSpawnLiteral(pass *Pass, lit *ast.FuncLit, loops []loopVarScope) {
	info := pass.Pkg.Info
	distinct := distinctValues(info, lit, loops)
	ls := cfg.LocksHeld(info, cfg.New(lit.Body))

	captured := func(e ast.Expr) (types.Object, bool) {
		obj := rootVar(info, e)
		if obj == nil {
			return nil, false
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return nil, false
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
			return nil, false // the closure's own local or parameter
		}
		return obj, true
	}
	checkWrite := func(stmt ast.Node, lhs ast.Expr) {
		switch tgt := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			obj, ok := captured(tgt.X)
			if !ok || ls.HeldAtPos(tgt) {
				return
			}
			tv, found := info.Types[tgt.X]
			if !found || tv.Type == nil {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(stmt.Pos(), "goroutine writes captured map %s: map writes race even on distinct keys; guard with a mutex", obj.Name())
			default:
				if !mentionsAny(info, tgt.Index, distinct) {
					pass.Reportf(stmt.Pos(), "goroutine writes captured slice %s at an index not derived from a worker-distinct value (closure parameter, per-iteration loop variable, or channel receive); overlapping ranges race", obj.Name())
				}
			}
		case *ast.Ident, *ast.SelectorExpr:
			obj, ok := captured(tgt)
			if !ok || ls.HeldAtPos(tgt) {
				return
			}
			pass.Reportf(stmt.Pos(), "goroutine writes captured variable %s without synchronization; give each worker a disjoint range or guard with a mutex", obj.Name())
		}
	}
	inspectUnit(lit.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return // := declares closure-locals, never writes captures
			}
			for _, lhs := range x.Lhs {
				checkWrite(x, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(x, x.X)
		}
	})
}

// distinctValues computes the closure's worker-distinct set: seeds
// (closure parameters, captured per-iteration loop variables of
// enclosing loops, channel receives) plus everything derived from them
// by assignment, as a flow-insensitive fixpoint over the closure body
// AND the bodies of enclosing loops — the shadow idiom
// `lo, hi, w := lo, hi, w` and derived bounds like `hi := lo + chunk`
// live in the loop body outside the closure, and the shadows are what
// the closure captures. Flow-insensitivity over-approximates (an
// assignment after the spawn also counts), matching the gen-only
// posture of the cfg length taint.
func distinctValues(info *types.Info, lit *ast.FuncLit, loops []loopVarScope) map[types.Object]bool {
	distinct := map[types.Object]bool{}
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					distinct[obj] = true
				}
			}
		}
	}
	units := []*ast.BlockStmt{lit.Body}
	for _, scope := range loops {
		if scope.pos <= lit.Pos() && lit.End() <= scope.end {
			for _, v := range scope.vars {
				distinct[v] = true
			}
			units = append(units, scope.body)
		}
	}
	mark := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || distinct[obj] {
			return false
		}
		distinct[obj] = true
		return true
	}
	derives := func(e ast.Expr) bool {
		if recv, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
			return true // channel receive: each goroutine gets its own items
		}
		return mentionsAny(info, e, distinct)
	}
	for changed := true; changed; {
		changed = false
		step := func(n ast.Node) {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i, rhs := range x.Rhs {
						if derives(rhs) && mark(x.Lhs[i]) {
							changed = true
						}
					}
				} else if len(x.Rhs) == 1 && derives(x.Rhs[0]) {
					for _, lhs := range x.Lhs {
						if mark(lhs) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) && derives(x.Values[i]) {
						if obj := info.Defs[name]; obj != nil && !distinct[obj] {
							distinct[obj] = true
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[x.X]
				if ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && x.Key != nil {
						if mark(x.Key) {
							changed = true
						}
					}
				}
			}
		}
		for _, u := range units {
			inspectUnit(u, step)
		}
	}
	return distinct
}

// mentionsAny reports whether e uses any object in set.
func mentionsAny(info *types.Info, e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != nil && set[obj] {
			found = true
		}
		return !found
	})
	return found
}

// rootVar resolves the base variable of a write target: `out` in
// out[i], `s` in s.n, `p` in (*p).x.
func rootVar(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		return rootVar(info, x.X)
	case *ast.IndexExpr:
		return rootVar(info, x.X)
	case *ast.StarExpr:
		return rootVar(info, x.X)
	}
	return nil
}
