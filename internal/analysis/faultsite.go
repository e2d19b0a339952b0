package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// FaultSite enforces the fault-injection coverage contract
// (docs/robustness.md): the chaos battery can only prove containment
// at places the pipeline actually fires. Two rules:
//
//  1. every fired site — a faultinject.Fire argument, or the Site of a
//     pipeerr.Pass literal, which the pass driver fires once per range —
//     must be a named faultinject.<Site> constant: a string literal or
//     local variable would silently fall outside the Sites list the
//     test batteries iterate;
//  2. every spawn in library code — a pipeerr.Group.Go call, or a pass
//     handed to the driver (Pass.Rows / Pass.Ranges) — must be covered
//     by a fault site: the Pass literal names a Site, or the spawned
//     function reaches a Fire call, either lexically or through
//     same-package callees (a package-local call-graph fixpoint follows
//     delegation, e.g. a worker whose closure calls a helper that
//     Fires).
//
// Rule 2 is what keeps the chaos tests honest: a new parallel stage
// without a site is a stage whose panic containment is never
// exercised.
var FaultSite = &Analyzer{
	Name: "faultsite",
	Doc:  "Fire takes named site constants; every Group spawn path must reach a Fire",
	Run:  runFaultSite,
}

func runFaultSite(pass *Pass) error {
	info := pass.Pkg.Info
	if strings.HasSuffix(pass.Pkg.PkgPath, "internal/faultinject") || strings.HasSuffix(pass.Pkg.PkgPath, "internal/pipeerr") {
		return nil // the registry itself, and the driver that forwards a Pass's Site to it
	}
	// Rule 1 applies everywhere, including main packages.
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if site := firedSite(info, n); site != nil {
				if _, ok := siteConst(info, site); !ok {
					pass.Reportf(n.Pos(), "fired site (faultinject.Fire argument, pipeerr.Pass Site) must be a named faultinject.<Site> constant so the site joins the chaos batteries")
				}
			}
			return true
		})
	}
	if !pass.IsLibrary() {
		return nil
	}
	reach := fireReachingFuncs(info, pass.Pkg.Files)
	sited := map[types.Object]bool{} // variables assigned a Pass literal that names a Site
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if id, ok := as.Lhs[i].(*ast.Ident); ok && firedSite(info, ast.Unparen(rhs)) != nil {
						sited[info.ObjectOf(id)] = true
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			spawn := pipeerrSpawn(info, call)
			switch spawn {
			case "", "Spawn":
				return true // fire-and-forget goroutines are not pipeline stages
			case "Pass.Rows", "Pass.Ranges":
				recv := ast.Unparen(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
				if id, ok := recv.(*ast.Ident); firedSite(info, recv) != nil || ok && sited[info.Uses[id]] {
					return true
				}
				spawn = "Pass without a Site"
			}
			if !spawnReachesFire(info, call.Args[len(call.Args)-1], reach) {
				pass.Reportf(call.Pos(), "pipeerr.%s spawn is not covered by a faultinject site: the spawned path never reaches faultinject.Fire, so its containment is never chaos-tested", spawn)
			}
			return true
		})
	}
	return nil
}

// firedSite returns the site expression n fires: the argument of a
// faultinject.Fire call, or the Site element of a pipeerr.Pass literal.
// nil when n fires nothing.
func firedSite(info *types.Info, n ast.Node) ast.Expr {
	switch x := n.(type) {
	case *ast.CallExpr:
		if isFireCall(info, x) && len(x.Args) == 1 {
			return x.Args[0]
		}
	case *ast.CompositeLit:
		if tv, ok := info.Types[x]; !ok || !isPipeerrPass(tv.Type) {
			return nil
		}
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok && types.ExprString(kv.Key) == "Site" {
				return kv.Value
			}
		}
	}
	return nil
}

// isPipeerrPass reports whether t is the pass driver's pipeerr.Pass.
func isPipeerrPass(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pass" && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/pipeerr")
}

// pipeerrSpawn names the pipeerr spawn point a call invokes — "Group.Go"
// (worker pools), "Spawn" (fire-and-forget), or the pass driver's
// "Pass.Rows" / "Pass.Ranges" — whose function argument runs on a
// spawned goroutine; "" for any other call.
func pipeerrSpawn(info *types.Info, call *ast.CallExpr) string {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/pipeerr") {
		return ""
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = t.(*types.Named).Obj().Name() + "." + name
	}
	switch name {
	case "Group.Go", "Spawn", "Pass.Rows", "Pass.Ranges":
		return name
	}
	return ""
}

// isFireCall recognizes a call to faultinject.Fire.
func isFireCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	return ok && fn.Name() == "Fire" && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/faultinject")
}

// siteConst resolves a fired site expression to a named string constant
// declared in the faultinject package, returning its constant value
// (the site name, e.g. "mergesort.chunk_sort").
func siteConst(info *types.Info, site ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(site).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	c, ok := info.Uses[sel.Sel].(*types.Const)
	if !ok || c.Pkg() == nil || !strings.HasSuffix(c.Pkg().Path(), "internal/faultinject") {
		return "", false
	}
	if c.Val().Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(c.Val()), true
}

// fireReachingFuncs computes the package-local call-graph fixpoint:
// the set of functions declared in these files that reach a Fire call
// — directly (a Fire anywhere in the body, closures included) or by
// calling another fire-reaching function of the same package.
func fireReachingFuncs(info *types.Info, files []*ast.File) map[types.Object]bool {
	type funcFacts struct {
		fires   bool
		callees []types.Object
	}
	facts := map[types.Object]*funcFacts{}
	var order []types.Object // declaration order, for a deterministic fixpoint sweep
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			f := &funcFacts{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isFireCall(info, call) {
					f.fires = true
					return true
				}
				if callee, ok := calleeObj(info, call).(*types.Func); ok &&
					callee.Pkg() != nil && obj.Pkg() != nil && callee.Pkg() == obj.Pkg() {
					f.callees = append(f.callees, callee)
				}
				return true
			})
			facts[obj] = f
			order = append(order, obj)
		}
	}
	reach := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			if reach[obj] {
				continue
			}
			f := facts[obj]
			if f.fires {
				reach[obj] = true
				changed = true
				continue
			}
			for _, callee := range f.callees {
				if reach[callee] {
					reach[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// spawnReachesFire reports whether the function value spawned by a
// Group.Go call reaches a Fire: a function literal that Fires lexically
// or calls a fire-reaching same-package function, or a named function
// in the reach set.
func spawnReachesFire(info *types.Info, arg ast.Expr, reach map[types.Object]bool) bool {
	switch fn := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		found := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFireCall(info, call) || reach[calleeObj(info, call)] {
				found = true
				return false
			}
			return true
		})
		return found
	case *ast.Ident:
		return reach[info.Uses[fn]]
	case *ast.SelectorExpr:
		return reach[info.Uses[fn.Sel]]
	}
	return false
}

// FiredSites returns the site names (the faultinject constants' string
// values) fired anywhere in pkgs — passed to faultinject.Fire or named
// as a pipeerr.Pass literal's Site — deduplicated and sorted. The
// faultinject consistency test cross-checks this
// against faultinject.Sites, replacing a hand-rolled AST walk with the
// analyzer's own recognition.
func FiredSites(pkgs []*Package) []string {
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.PkgPath, "internal/faultinject") {
			continue // the registry's own sources mention sites without firing them
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if expr := firedSite(pkg.Info, n); expr != nil {
					if site, ok := siteConst(pkg.Info, expr); ok {
						seen[site] = true
					}
				}
				return true
			})
		}
	}
	sites := make([]string, 0, len(seen))
	for s := range seen {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	return sites
}
