// Package analysis is a self-contained, stdlib-only re-implementation of
// the core golang.org/x/tools/go/analysis API surface used by this
// repository's lint suite (repro/internal/lint/...).
//
// The build environment for this repository is hermetic — no module proxy
// — so the real x/tools module cannot be depended on. The types here keep
// the same names, fields and semantics as their x/tools counterparts so
// that the analyzers can be ported to the real framework by changing one
// import path if the dependency ever becomes available.
//
// An Analyzer names one invariant and provides a Run function over a
// Pass. A Pass presents one type-checked package; Run reports findings
// through Pass.Report/Reportf. Drivers (repro/internal/lint/driver for
// go vet, repro/internal/lint/linttest for tests) construct passes and
// collect diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: a named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank
	// line, then detail. The first line is shown in usage listings.
	Doc string

	// Requires lists analyzers that must run on the package first.
	// Their results are available through Pass.ResultOf. The graph
	// must be acyclic; drivers run requirements before the requirer
	// and report diagnostics only for the analyzers they were asked
	// to run (a requirement pulled in implicitly contributes its
	// result, not its findings).
	Requires []*Analyzer

	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// TypesSizes gives the sizes/alignments of the target build
	// platform (the platform the package was type-checked for).
	TypesSizes types.Sizes

	// ResultOf maps each analyzer in Analyzer.Requires to the value
	// its Run returned for this same package.
	ResultOf map[*Analyzer]interface{}

	// Report records one diagnostic. Drivers install it; analyzers
	// usually call Reportf instead.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (p *Pass) String() string {
	return fmt.Sprintf("%s@%s", p.Analyzer.Name, p.Pkg.Path())
}

// Diagnostic is one finding: a position and a message. Category is the
// reporting analyzer's name; drivers fill it in so suppression and
// output formatting need no extra plumbing.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional
	Category string
	Message  string
}
