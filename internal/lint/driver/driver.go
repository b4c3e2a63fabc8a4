// Package driver runs repro/internal/lint analyzers as a go vet tool.
// The go command hands the tool one package per invocation: a vet
// config file (see unit.go) naming the package's files and the compiler
// export data of its dependencies. go vet -vettool therefore caches
// results per package and covers _test.go files.
//
// TypeCheck loads one package and Analyze applies the analyzers to it,
// filtering findings through //lint:ignore directives;
// repro/internal/lint/linttest shares both.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Package bundles everything a Pass needs for one package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Sizes types.Sizes
}

// Analyze applies the analyzers to pkg and returns the surviving
// diagnostics (Category filled in, //lint:ignore directives applied,
// malformed directives reported) sorted by position.
//
// Analyzers named in a Requires graph run before their requirers and
// feed them through Pass.ResultOf; requirements pulled in implicitly
// (not in the analyzers argument) contribute results only — their
// diagnostics are dropped, so a test can run one analyzer without also
// surfacing its dependencies' findings.
func Analyze(pkg *Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	ignores := analysis.NewIgnoreSet(pkg.Fset, pkg.Files)
	requested := make(map[*analysis.Analyzer]bool, len(analyzers))
	for _, a := range analyzers {
		requested[a] = true
	}
	order, err := depOrder(analyzers)
	if err != nil {
		return nil, err
	}
	results := make(map[*analysis.Analyzer]interface{}, len(order))
	var diags []analysis.Diagnostic
	for _, a := range order {
		a := a
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			TypesSizes: pkg.Sizes,
		}
		if len(a.Requires) > 0 {
			pass.ResultOf = make(map[*analysis.Analyzer]interface{}, len(a.Requires))
			for _, req := range a.Requires {
				pass.ResultOf[req] = results[req]
			}
		}
		pass.Report = func(d analysis.Diagnostic) {
			d.Category = a.Name
			if !requested[a] {
				return
			}
			if ignores.Suppressed(pkg.Fset, a.Name, d.Pos) {
				return
			}
			diags = append(diags, d)
		}
		res, err := a.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		results[a] = res
	}
	for _, d := range ignores.Malformed {
		d.Category = "lintdirective"
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// depOrder expands the analyzer set with its transitive requirements
// and returns a topological order (requirements first). It rejects
// cycles, which would be a programming error in analyzer wiring.
func depOrder(analyzers []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	var (
		order   []*analysis.Analyzer
		done    = map[*analysis.Analyzer]bool{}
		visit   func(a *analysis.Analyzer) error
		onStack = map[*analysis.Analyzer]bool{}
	)
	visit = func(a *analysis.Analyzer) error {
		if done[a] {
			return nil
		}
		if onStack[a] {
			return fmt.Errorf("analyzer requirement cycle through %s", a.Name)
		}
		onStack[a] = true
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		onStack[a] = false
		done[a] = true
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// TargetSizes returns the std sizes for the platform selected by the
// GOARCH environment variable, defaulting to the host.
func TargetSizes() types.Sizes {
	goarch := os.Getenv("GOARCH")
	if goarch == "" {
		goarch = runtime.GOARCH
	}
	if s := types.SizesFor("gc", goarch); s != nil {
		return s
	}
	return types.SizesFor("gc", "amd64")
}

// TypeCheck type-checks files as package path under conf and bundles the
// result, with the types.Info every analyzer's Pass reads and conf's
// sizes, as a Package. The vet tool and linttest both load through it, so
// analyzers see the same Info in tests as under go vet.
func TypeCheck(conf *types.Config, path string, fset *token.FileSet, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info, Sizes: conf.Sizes}, nil
}

// Main is cmd/lfcheck's entry point. It answers the version and flag
// handshakes the go command performs on a vet tool and runs the
// unit-checker protocol on a single *.cfg argument; anything else, such
// as package patterns, gets the usage text. It returns the process exit
// code.
func Main(analyzers []*analysis.Analyzer, args []string) int {
	for _, arg := range args {
		switch arg {
		case "-V=full", "--V=full":
			printVersion()
			return 0
		case "-flags", "--flags":
			// The go command queries a vet tool's flags to validate the
			// command line. lfcheck defines none beyond the protocol.
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitCheck(analyzers, args[0])
	}
	usage(analyzers)
	if len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help") {
		return 0
	}
	return 2
}

func usage(analyzers []*analysis.Analyzer) {
	fmt.Fprintln(os.Stderr, "lfcheck is this repository's lock-free-code lint suite; it runs as a go vet tool:")
	fmt.Fprintln(os.Stderr, "\n  go build -o lfcheck ./cmd/lfcheck")
	fmt.Fprintln(os.Stderr, "  go vet -vettool=$(pwd)/lfcheck ./...")
	fmt.Fprintln(os.Stderr, "\nanalyzers:")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, doc)
	}
	fmt.Fprintln(os.Stderr, "\nsuppress a finding with: //lint:ignore <analyzer> <reason>")
}
