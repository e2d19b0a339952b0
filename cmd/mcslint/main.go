// Command mcslint runs the project's static-analysis suite
// (internal/analysis) over package patterns and reports findings as
// file:line:col: analyzer: message lines.
//
// Usage:
//
//	mcslint [flags] [packages]
//
// Packages default to ./... relative to the working directory.
// Patterns are directories ("./internal/obs") or recursive forms
// ("./...", "internal/..."); testdata, vendor, and hidden directories
// are skipped during recursion.
//
// Flags:
//
//	-list          print the analyzers and exit
//	-only  a,b     run only the named analyzers
//	-disable a,b   run everything except the named analyzers
//	-allow FILE    allowlist of vetted exceptions
//	               (default: <module>/lint/allow.txt when present)
//	-json          emit findings as a JSON array on stdout
//	-strict-allow  treat unused allowlist entries as findings (exit 1)
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "print the available analyzers and exit")
		only      = fs.String("only", "", "comma-separated analyzers to run (default: all)")
		disable   = fs.String("disable", "", "comma-separated analyzers to skip")
		allowPath = fs.String("allow", "", "allowlist file (default: <module>/lint/allow.txt when present)")
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON array on stdout")
		strict    = fs.Bool("strict-allow", false, "treat unused allowlist entries as findings (exit 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*only, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}

	allow, err := loadAllow(*allowPath, root)
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "mcslint: %s: %v\n", pkg.PkgPath, terr)
			broken = true
		}
	}
	if broken {
		fmt.Fprintf(stderr, "mcslint: type errors above make analysis unreliable; fix them first\n")
		return 2
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "mcslint: %v\n", err)
		return 2
	}
	diags = allow.Filter(root, diags)

	unused := unusedInRun(allow, root, pkgs, analyzers)
	severity := "warning"
	if *strict {
		severity = "error"
	}
	for _, e := range unused {
		loc := e.Path
		if e.Line > 0 {
			loc = fmt.Sprintf("%s:%d", e.Path, e.Line)
		}
		fmt.Fprintf(stderr, "mcslint: %s: unused allowlist entry: %s %s (%s)\n", severity, e.Analyzer, loc, e.Justification)
	}

	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		findings = append(findings, finding{
			File:     filepath.ToSlash(rel),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "mcslint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mcslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	if *strict && len(unused) > 0 {
		fmt.Fprintf(stderr, "mcslint: %d unused allowlist entr%s under -strict-allow\n", len(unused), pluralY(len(unused)))
		return 1
	}
	return 0
}

// unusedInRun returns the allowlist entries this run could have matched
// but did not: an entry counts only when its analyzer ran and its file
// belongs to a loaded package, so a run narrowed by -only, -disable or
// a package pattern does not report the rest of the list as stale.
func unusedInRun(allow *analysis.Allowlist, root string, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) []*analysis.AllowEntry {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if rel, err := filepath.Rel(root, pkg.Fset.File(f.Pos()).Name()); err == nil {
				loaded[filepath.ToSlash(rel)] = true
			}
		}
	}
	var out []*analysis.AllowEntry
	for _, e := range allow.Unused() {
		if ran[e.Analyzer] && loaded[e.Path] {
			out = append(out, e)
		}
	}
	return out
}

func pluralY(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

func selectAnalyzers(only, disable string) ([]*analysis.Analyzer, error) {
	if only != "" && disable != "" {
		return nil, errors.New("-only and -disable are mutually exclusive")
	}
	if only != "" {
		var out []*analysis.Analyzer
		for _, name := range splitNames(only) {
			a := analysis.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			out = append(out, a)
		}
		if len(out) == 0 {
			return nil, errors.New("-only selected no analyzers")
		}
		return out, nil
	}
	skip := map[string]bool{}
	for _, name := range splitNames(disable) {
		if analysis.ByName(name) == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		skip[name] = true
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.All() {
		if !skip[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("-disable removed every analyzer")
	}
	return out, nil
}

func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// loadAllow resolves the allowlist: an explicit -allow path must
// exist; the default <module>/lint/allow.txt is optional.
func loadAllow(path, root string) (*analysis.Allowlist, error) {
	if path == "" {
		path = filepath.Join(root, "lint", "allow.txt")
		if _, err := os.Stat(path); err != nil {
			// No default allowlist: run with no exceptions.
			return nil, nil
		}
	}
	return analysis.LoadAllowlist(path)
}
