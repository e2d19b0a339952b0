// Package analysis is a stdlib-only static-analysis framework for this
// repository: a small analyzer driver (package loading, type checking,
// diagnostic reporting, allowlisting) plus the project-specific
// analyzers that mechanically enforce the pipeline's correctness
// contracts — cancellation polling in data-bound loops, no panics in
// library code, map-order-free output and no global random source,
// obs metric naming discipline, checked intra-repo errors, spawns
// through pipeerr, and fault-site coverage.
//
// The framework deliberately uses only go/ast, go/parser, go/token,
// go/types, and go/importer (no golang.org/x/tools dependency): the
// repository has no third-party modules and the lint job must run from
// a bare toolchain. See docs/static-analysis.md for the analyzer
// catalogue and cmd/mcslint for the command-line driver.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named static check. Run receives a fully loaded
// and type-checked package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable/disable
	// flags, and allowlist entries. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `mcslint -list`.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: which analyzer, where, and what.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by file, line, column, then analyzer name. An
// analyzer returning an error aborts the run: analyzer errors are
// driver bugs, not findings.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// IsLibrary reports whether the package is library code for the
// purpose of the nopanic and determinism analyzers: anything that is
// not a main package. cmd/ binaries and examples/ are main packages
// and may exit, panic, and draw from the global random source freely.
func (p *Pass) IsLibrary() bool {
	return p.Pkg.Types == nil || p.Pkg.Types.Name() != "main"
}
