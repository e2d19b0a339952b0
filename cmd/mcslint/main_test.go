package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture paths are relative to this package directory (the test's
// working directory), pointing into the analysis golden fixtures.
const (
	seededPkg = "../../internal/analysis/testdata/src/nopanic/a"
	cleanPkg  = "../../internal/analysis/testdata/src/nopanic/mainpkg"
)

// emptyAllow writes an allowlist with a single never-matching entry so
// runs are hermetic against the repo's real lint/allow.txt.
func emptyAllow(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("# test allowlist\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsAllAnalyzers(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"ctxpoll", "nopanic", "determinism", "obsnames", "errchecklite", "grouped", "faultsite"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, out, stderr := runLint(t, "-allow", emptyAllow(t), seededPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "internal/analysis/testdata/src/nopanic/a/a.go:") {
		t.Errorf("findings not module-relative:\n%s", out)
	}
	if !strings.Contains(out, "nopanic: panic in library code") {
		t.Errorf("expected nopanic finding:\n%s", out)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("summary line missing from stderr:\n%s", stderr)
	}
}

func TestCleanExitZero(t *testing.T) {
	code, out, stderr := runLint(t, "-allow", emptyAllow(t), cleanPkg)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if out != "" {
		t.Errorf("clean run produced output:\n%s", out)
	}
}

func TestBadPatternExitTwo(t *testing.T) {
	code, _, stderr := runLint(t, "./no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "mcslint:") {
		t.Errorf("no error message on stderr:\n%s", stderr)
	}
}

func TestOnlySelectsAnalyzers(t *testing.T) {
	// The nopanic fixture has no ctxpoll findings, so restricting to
	// ctxpoll must come back clean.
	if code, out, _ := runLint(t, "-only", "ctxpoll", "-allow", emptyAllow(t), seededPkg); code != 0 {
		t.Errorf("-only ctxpoll exit = %d, want 0; out:\n%s", code, out)
	}
	if code, _, _ := runLint(t, "-only", "nopanic", "-allow", emptyAllow(t), seededPkg); code != 1 {
		t.Errorf("-only nopanic exit = %d, want 1", code)
	}
}

func TestDisableSkipsAnalyzers(t *testing.T) {
	code, out, _ := runLint(t, "-disable", "nopanic", "-allow", emptyAllow(t), seededPkg)
	if code != 0 {
		t.Errorf("-disable nopanic exit = %d, want 0; out:\n%s", code, out)
	}
}

func TestFlagErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-only", "nopanic", "-disable", "ctxpoll"}, // mutually exclusive
		{"-only", "nosuch"},
		{"-disable", "nosuch"},
		{"-disable", "ctxpoll,nopanic,determinism,obsnames,errchecklite,grouped,faultsite"},
		{"-bogusflag"},
	}
	for _, args := range cases {
		if code, _, _ := runLint(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

func TestAllowlistSuppressesAndWarnsUnused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	allow := "nopanic internal/analysis/testdata/src/nopanic/a/a.go golden fixture panics on purpose\n" +
		"determinism internal/analysis/testdata/src/nopanic/a/a.go stale entry that matches nothing\n"
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runLint(t, "-allow", path, seededPkg)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 after allowlisting; out:\n%s", code, out)
	}
	if !strings.Contains(stderr, "unused allowlist entry: determinism") {
		t.Errorf("no unused-entry warning for the stale line:\n%s", stderr)
	}
	if strings.Contains(stderr, "unused allowlist entry: nopanic") {
		t.Errorf("matching entry reported unused:\n%s", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runLint(t, "-json", "-allow", emptyAllow(t), seededPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	f := findings[0]
	if f.Analyzer != "nopanic" || f.Line <= 0 || f.Col <= 0 ||
		!strings.HasSuffix(f.File, "nopanic/a/a.go") || f.Message == "" {
		t.Errorf("malformed finding: %+v", f)
	}
}

func TestJSONCleanEmitsEmptyArray(t *testing.T) {
	code, out, _ := runLint(t, "-json", "-allow", emptyAllow(t), cleanPkg)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json run should print [], got:\n%s", out)
	}
}

func TestStrictAllowFailsOnUnusedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	allow := "determinism internal/analysis/testdata/src/nopanic/mainpkg/main.go stale entry that matches nothing\n"
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runLint(t, "-strict-allow", "-allow", path, cleanPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 under -strict-allow; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "error: unused allowlist entry") {
		t.Errorf("unused entry not escalated to error:\n%s", stderr)
	}
	if !strings.Contains(stderr, "unused allowlist entr") {
		t.Errorf("missing strict summary:\n%s", stderr)
	}

	// The same stale entry without the flag stays a warning.
	if code, _, _ := runLint(t, "-allow", path, cleanPkg); code != 0 {
		t.Errorf("exit = %d, want 0 without -strict-allow", code)
	}
}

// TestStrictAllowIgnoresEntriesOutsideTheRun pins the scope of the
// stale-entry check: an entry for an analyzer the run skipped, or for a
// file no loaded package contains, could never have matched, so a
// narrowed run must not call it unused.
func TestStrictAllowIgnoresEntriesOutsideTheRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	allow := "nopanic internal/analysis/testdata/src/nopanic/a/a.go golden fixture panics on purpose\n" +
		"ctxpoll internal/analysis/testdata/src/nopanic/a/a.go:3 analyzer the run skips\n" +
		"nopanic internal/chaos/chaos.go:230 file outside the loaded packages\n"
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-strict-allow", "-only", "nopanic", "-allow", path, seededPkg},
		{"-strict-allow", "-disable", "ctxpoll", "-allow", path, seededPkg},
	} {
		code, _, stderr := runLint(t, args...)
		if code != 0 {
			t.Errorf("run(%v) exit = %d, want 0; stderr:\n%s", args, code, stderr)
		}
		if strings.Contains(stderr, "unused allowlist entry") {
			t.Errorf("run(%v) reported an entry it could not match:\n%s", args, stderr)
		}
	}
}

func TestMissingExplicitAllowlistExitTwo(t *testing.T) {
	code, _, stderr := runLint(t, "-allow", filepath.Join(t.TempDir(), "nope.txt"), cleanPkg)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
}

func TestMalformedAllowlistExitTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("nopanic a.go\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runLint(t, "-allow", path, cleanPkg); code != 2 {
		t.Fatalf("exit = %d, want 2 for entry without justification", code)
	}
}

func TestMultiplePackagesSortedOutput(t *testing.T) {
	code, out, _ := runLint(t, "-allow", emptyAllow(t),
		"../../internal/analysis/testdata/src/determinism/a", seededPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "determinism/a/a.go:") || !strings.Contains(out, "nopanic/a/a.go:") {
		t.Fatalf("findings missing a package:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	files := make([]string, len(lines))
	for i, l := range lines {
		files[i] = strings.SplitN(l, ":", 2)[0]
	}
	for i := 1; i < len(files); i++ {
		if files[i-1] > files[i] {
			t.Errorf("output not sorted by file: %s before %s", files[i-1], files[i])
		}
	}
}

func TestTypeErrorsExitTwo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "broken")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package broken\n\nfunc f() { undefinedIdentifier() }\n"
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runLint(t, dir)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on type errors; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "type errors above make analysis unreliable") {
		t.Errorf("missing type-error explanation:\n%s", stderr)
	}
}
