package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func diag(analyzer, file string, line int) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Message:  "m",
	}
}

func TestParseAllowlist(t *testing.T) {
	src := `
# comment
determinism internal/obs/obs.go snapshots are sorted by name before rendering

ctxpoll internal/experiments/planspace.go:42 tiny plan-space loop, bounded by column count
`
	al, err := ParseAllowlist("allow.txt", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if al.Len() != 2 {
		t.Fatalf("Len = %d, want 2", al.Len())
	}
	if !al.Allowed("internal/obs/obs.go", diag("determinism", "x", 7)) {
		t.Errorf("file-level entry did not match any line")
	}
	if al.Allowed("internal/obs/obs.go", diag("ctxpoll", "x", 7)) {
		t.Errorf("entry matched a different analyzer")
	}
	if !al.Allowed("internal/experiments/planspace.go", diag("ctxpoll", "x", 42)) {
		t.Errorf("line-level entry did not match its line")
	}
	if al.Allowed("internal/experiments/planspace.go", diag("ctxpoll", "x", 43)) {
		t.Errorf("line-level entry matched the wrong line")
	}
}

func TestParseAllowlistRejectsMissingJustification(t *testing.T) {
	if _, err := ParseAllowlist("allow.txt", strings.NewReader("nopanic internal/mergesort/sort.go\n")); err == nil {
		t.Fatal("entry without justification parsed")
	}
	if _, err := ParseAllowlist("allow.txt", strings.NewReader("nopanic\n")); err == nil {
		t.Fatal("analyzer-only entry parsed")
	}
	if _, err := ParseAllowlist("allow.txt", strings.NewReader("nopanic a.go:zero broken line number\n")); err == nil {
		t.Fatal("bad line number parsed")
	}
	if _, err := ParseAllowlist("allow.txt", strings.NewReader(`nopanic a\b.go backslash path`)); err == nil {
		t.Fatal("backslash path parsed")
	}
}

func TestAllowlistUnusedAndFilter(t *testing.T) {
	src := `nopanic internal/a/a.go legacy precondition panic
nopanic internal/b/b.go:9 stale entry, code was fixed
`
	al, err := ParseAllowlist("allow.txt", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		diag("nopanic", "/mod/internal/a/a.go", 3),
		diag("nopanic", "/mod/internal/c/c.go", 5),
	}
	kept := al.Filter("/mod", diags)
	if len(kept) != 1 || kept[0].Pos.Filename != "/mod/internal/c/c.go" {
		t.Fatalf("Filter kept %v, want only internal/c/c.go", kept)
	}
	unused := al.Unused()
	if len(unused) != 1 || unused[0].Path != "internal/b/b.go" {
		t.Fatalf("Unused = %+v, want the stale internal/b entry", unused)
	}
}

func TestNilAllowlist(t *testing.T) {
	var al *Allowlist
	if al.Allowed("x.go", diag("nopanic", "x.go", 1)) {
		t.Error("nil allowlist allowed something")
	}
	if al.Len() != 0 || al.Unused() != nil {
		t.Error("nil allowlist not empty")
	}
	d := []Diagnostic{diag("nopanic", "x.go", 1)}
	if got := al.Filter("/", d); len(got) != 1 {
		t.Errorf("nil Filter dropped diagnostics")
	}
}
