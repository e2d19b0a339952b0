package cfg

import (
	"go/ast"
	"go/types"
)

// LockState is the result of the must-locked analysis: at every
// program point, the set of sync.Mutex/sync.RWMutex objects that are
// definitely held — held on *every* CFG path from function entry
// (intersection meet). atomicmix and goroutinecapture use it to
// recognize a plain access that is in fact serialized by a mutex.
//
// Lock identity is the types.Object of the variable or struct field
// the Lock method is called through (`mu`, `s.mu`, an embedded
// receiver). Two instances of one struct type share the field object,
// so the analysis can confuse s1.mu with s2.mu — acceptable for a
// lint whose subjects overwhelmingly lock their own receiver — and a
// deferred Unlock is ignored entirely (it runs at return, after every
// access the analysis will be asked about).
type LockState struct {
	g    *Graph
	info *types.Info
	in   map[*Block]InterSet
}

// LocksHeld runs the must-locked analysis over g.
func LocksHeld(info *types.Info, g *Graph) *LockState {
	ls := &LockState{g: g, info: info}
	ls.in = Forward(g, InterSet{}, func(b *Block, in InterSet) InterSet {
		set := in
		for _, n := range b.Nodes {
			set = ls.apply(n, set)
		}
		return set
	})
	return ls
}

// HeldAt reports whether some mutex is definitely held just before n
// executes. Nodes the graph does not place (inside function literals —
// callers build a separate graph per literal) and dead code answer
// true: "held" suppresses findings, and code that cannot run cannot
// race.
func (ls *LockState) HeldAt(n ast.Node) bool {
	b := ls.g.BlockOf(n)
	if b == nil {
		return true
	}
	set, ok := ls.in[b]
	if !ok {
		return true
	}
	for _, node := range b.Nodes {
		if node == n {
			break
		}
		set = ls.apply(node, set)
	}
	return len(set) > 0
}

// HeldAtPos is HeldAt for a position inside a placed statement: it
// resolves the innermost placed node containing pos. Analyzers that
// walk expressions use it, since expressions are not placed directly.
func (ls *LockState) HeldAtPos(pos ast.Node) bool {
	hit := ls.g.NodeAt(pos)
	if hit == nil {
		return true
	}
	return ls.HeldAt(hit)
}

// apply threads one placed node's Lock/Unlock calls through the held
// set. Defer statements are skipped wholesale — their calls run at
// function exit — and RangeStmt nodes carry no lock operations.
func (ls *LockState) apply(n ast.Node, set InterSet) InterSet {
	switch n.(type) {
	case *ast.DeferStmt, *ast.RangeStmt:
		return set
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			// Deferred and closure lock traffic happens at some other
			// time; a closure's own accesses get their own graph.
			return false
		case *ast.CallExpr:
			obj, locks := mutexMethod(ls.info, x)
			if obj == nil {
				return true
			}
			if locks {
				set = interWith(set, obj)
			} else {
				set = interWithout(set, obj)
			}
		}
		return true
	})
	return set
}

func interWith(s InterSet, o types.Object) InterSet {
	if s[o] {
		return s
	}
	n := make(InterSet, len(s)+1)
	for k := range s {
		n[k] = true
	}
	n[o] = true
	return n
}

func interWithout(s InterSet, o types.Object) InterSet {
	if !s[o] {
		return s
	}
	n := make(InterSet, len(s))
	for k := range s {
		if k != o {
			n[k] = true
		}
	}
	return n
}

// mutexMethod recognizes call as a sync mutex transition and returns
// the lock's identity object: (obj, true) for Lock/RLock,
// (obj, false) for Unlock/RUnlock, (nil, _) for anything else.
func mutexMethod(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false
	}
	var locks bool
	switch fn.Name() {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return nil, false
	}
	return lockTarget(info, sel.X), locks
}

// lockTarget resolves the variable or field the mutex lives in: the
// rightmost identifier of the receiver chain (`mu` in s.mu.Lock(),
// `s` for an embedded s.Lock()).
func lockTarget(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}
