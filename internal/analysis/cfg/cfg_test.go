package cfg_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis/cfg"
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
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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

// loopNamed returns the n-th (0-based) For/Range statement in the body.
func loopNamed(t *testing.T, fd *ast.FuncDecl, idx int) ast.Node {
	t.Helper()
	var loops []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	if idx >= len(loops) {
		t.Fatalf("want loop %d, have %d loops", idx, len(loops))
	}
	return loops[idx]
}

func TestStraightLineAndIf(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(a int) int {
	b := a + 1
	if b > 0 {
		b = 2
	} else {
		b = 3
	}
	return b
}`, "f")
	g := cfg.New(fd.Body)
	// entry, body, then, else, join, (unreachable after return), exit —
	// the exact count matters less than the join structure.
	if g.Entry == nil || g.Exit == nil {
		t.Fatal("missing entry/exit")
	}
	if len(g.Exit.Preds) == 0 {
		t.Fatal("exit unreachable")
	}
	dump := g.String()
	if !strings.Contains(dump, "if.then") || !strings.Contains(dump, "if.else") || !strings.Contains(dump, "if.join") {
		t.Errorf("missing if blocks:\n%s", dump)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	g := cfg.New(fd.Body)
	loop := loopNamed(t, fd, 0)
	head := g.BlockOf(loop)
	if head == nil {
		t.Fatal("loop has no head block")
	}
	if !g.Reaches(head, head) {
		t.Error("loop head does not re-reach itself via the back edge")
	}
}

func TestLabeledBreakAndContinue(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(m [][]int) int {
	s := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			if v == 0 {
				continue outer
			}
			s += v
		}
	}
	return s
}`, "f")
	g := cfg.New(fd.Body)
	outer := g.BlockOf(loopNamed(t, fd, 0))
	inner := g.BlockOf(loopNamed(t, fd, 1))
	if outer == nil || inner == nil {
		t.Fatal("loops not placed")
	}
	// continue outer from the inner body must re-reach the outer head.
	if !g.Reaches(inner, outer) {
		t.Error("continue outer: inner body does not reach outer head")
	}
	// break outer must reach exit without passing the outer head again:
	// find the break statement's block and check it reaches exit.
	var brk ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.BREAK {
			brk = b
		}
		return true
	})
	bb := g.BlockOf(brk)
	if bb == nil {
		t.Fatal("break not placed")
	}
	if !g.Reaches(bb, g.Exit) {
		t.Error("break outer does not reach exit")
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	if n < 0 {
		goto done
	}
	i *= 2
done:
	return i
}`, "f")
	g := cfg.New(fd.Body)
	dump := g.String()
	if !strings.Contains(dump, "label.loop") || !strings.Contains(dump, "label.done") {
		t.Fatalf("labels missing:\n%s", dump)
	}
	// The backward goto makes label.loop part of a cycle.
	var loopBlock *cfg.Block
	for _, b := range g.Blocks {
		if b.Kind == "label.loop" {
			loopBlock = b
		}
	}
	if loopBlock == nil || !g.Reaches(loopBlock, loopBlock) {
		t.Error("backward goto did not form a cycle through label.loop")
	}
}

func TestSelectWithDefault(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return -1
	}
}`, "f")
	g := cfg.New(fd.Body)
	cases := 0
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			cases++
		}
	}
	if cases != 2 {
		t.Errorf("select.case blocks = %d, want 2 (incl. default)", cases)
	}
	if len(g.Exit.Preds) < 2 {
		t.Errorf("both select arms should return; exit preds = %d", len(g.Exit.Preds))
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(n int) int {
	s := 0
	switch n {
	case 0:
		s = 1
		fallthrough
	case 1:
		s += 2
	default:
		s = 9
	}
	return s
}`, "f")
	g := cfg.New(fd.Body)
	// The case-0 block must have the case-1 block among its
	// successors (fallthrough edge).
	var caseBlocks []*cfg.Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.case" {
			caseBlocks = append(caseBlocks, b)
		}
	}
	if len(caseBlocks) != 3 {
		t.Fatalf("case blocks = %d, want 3", len(caseBlocks))
	}
	fell := false
	for _, s := range caseBlocks[0].Succs {
		if s == caseBlocks[1] {
			fell = true
		}
	}
	if !fell {
		t.Errorf("fallthrough edge missing:\n%s", g)
	}
}

func TestDeferInLoop(t *testing.T) {
	fd, _ := loadFunc(t, `package x
func f(xs []int) (n int) {
	for range xs {
		defer func() { n++ }()
	}
	return n
}`, "f")
	g := cfg.New(fd.Body)
	// The defer is recorded at its registration point, inside the loop
	// body, which re-reaches the loop head.
	var def ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			def = d
		}
		return true
	})
	db := g.BlockOf(def)
	if db == nil {
		t.Fatal("defer not placed")
	}
	head := g.BlockOf(loopNamed(t, fd, 0))
	if !g.Reaches(db, head) {
		t.Error("defer-in-loop block does not re-reach the loop head")
	}
}

func TestReachesColdPath(t *testing.T) {
	fd, _ := loadFunc(t, `package x
import "errors"
func f(xs []int) error {
	for _, x := range xs {
		if x < 0 {
			return errors.New("neg")
		}
	}
	return nil
}`, "f")
	g := cfg.New(fd.Body)
	var ret ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && ret == nil {
			ret = r // the in-loop return
		}
		return true
	})
	head := g.BlockOf(loopNamed(t, fd, 0))
	rb := g.BlockOf(ret)
	if rb == nil || head == nil {
		t.Fatal("nodes not placed")
	}
	if g.Reaches(rb, head) {
		t.Error("early-return block must not re-reach the loop head")
	}
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
	g := cfg.New(fd.Body)
	taint := cfg.LenTaint(info, g)
	loop0 := loopNamed(t, fd, 0)
	set := taint.At(loop0)
	for _, name := range []string{"n", "m", "k"} {
		if !set[objOf(t, info, fd, name)] {
			t.Errorf("%s not tainted at first loop (chain depth 3)", name)
		}
	}
	if set[objOf(t, info, fd, "c")] {
		t.Error("c (constant-derived) wrongly tainted")
	}
	forStmt, ok := loopNamed(t, fd, 1).(*ast.ForStmt)
	if !ok {
		t.Fatal("second loop is not a ForStmt")
	}
	// j < c mentions only c, which is untainted: not data-bound.
	if cfg.MentionsLen(info, forStmt.Cond, taint.At(forStmt)) {
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
	g := cfg.New(fd.Body)
	taint := cfg.LenTaint(info, g)
	if !taint.At(loopNamed(t, fd, 0))[objOf(t, info, fd, "n")] {
		t.Error("closure-assigned n should taint at the loop (creation-point gen)")
	}
}

func TestMustLockedBranchesAndDefer(t *testing.T) {
	fd, info := loadFunc(t, `package x
import "sync"
type S struct {
	mu sync.Mutex
	n  int
}
func (s *S) f(b bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++        // held: defer unlock runs at return
	if b {
		s.n = 2  // held
	}
	return s.n   // held
}
func (s *S) g(b bool) {
	if b {
		s.mu.Lock()
	}
	s.n = 3 // NOT must-held: the else path skipped the Lock
	if b {
		s.mu.Unlock()
	}
}`, "f")
	g := cfg.New(fd.Body)
	ls := cfg.LocksHeld(info, g)
	// Every s.n access in f is held.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "n" {
			if !ls.HeldAtPos(sel) {
				t.Errorf("f: access at %v not recognized as mutex-held", sel.Pos())
			}
		}
		return true
	})

	gd, info2 := loadFunc(t, `package x
import "sync"
type S struct {
	mu sync.Mutex
	n  int
}
func (s *S) g(b bool) {
	if b {
		s.mu.Lock()
	}
	s.n = 3
	if b {
		s.mu.Unlock()
	}
}`, "g")
	g2 := cfg.New(gd.Body)
	ls2 := cfg.LocksHeld(info2, g2)
	held := false
	ast.Inspect(gd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			held = ls2.HeldAt(as)
		}
		return true
	})
	if held {
		t.Error("g: conditionally-locked access wrongly classified as must-held")
	}
}

func TestReachingDefsKillAndMerge(t *testing.T) {
	fd, info := loadFunc(t, `package x
func f(b bool) []int {
	var xs []int
	if b {
		xs = make([]int, 0, 8)
	}
	xs = append(xs, 1)
	var ys []int
	ys = make([]int, 0, 4)
	ys = append(ys, 2)
	return append(xs, ys...)
}`, "f")
	g := cfg.New(fd.Body)
	r := cfg.ReachingDefs(info, g)
	var appends []*ast.AssignStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					appends = append(appends, as)
				}
			}
		}
		return true
	})
	if len(appends) != 2 {
		t.Fatalf("appends = %d, want 2", len(appends))
	}
	// xs append: both the var decl and the make reach (merge).
	xsDefs := r.DefsAt(appends[0], objOf(t, info, fd, "xs"))
	if len(xsDefs) != 2 {
		t.Errorf("xs defs at append = %d, want 2 (var + conditional make)", len(xsDefs))
	}
	// ys append: the make killed the var decl.
	ysDefs := r.DefsAt(appends[1], objOf(t, info, fd, "ys"))
	if len(ysDefs) != 1 {
		t.Errorf("ys defs at append = %d, want 1 (make killed the decl)", len(ysDefs))
	}
}

func TestNilBody(t *testing.T) {
	g := cfg.New(nil)
	if g.Entry == nil || g.Exit == nil || !g.Reaches(g.Entry, g.Exit) {
		t.Error("nil body should yield entry -> exit")
	}
}

func ExampleGraph_String() {
	src := `package x
func f(b bool) int {
	if b {
		return 1
	}
	return 0
}`
	fset := token.NewFileSet()
	file, _ := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok {
			fd = f
		}
	}
	g := cfg.New(fd.Body)
	fmt.Print(strings.Count(g.String(), "\n") > 0)
	// Output: true
}
