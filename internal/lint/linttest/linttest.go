// Package linttest is a stdlib-only analogue of
// golang.org/x/tools/go/analysis/analysistest for the repro/internal/lint
// suite: it type-checks packages under a testdata directory, runs one
// analyzer (with //lint:ignore filtering, so suppression is testable),
// and compares the diagnostics against // want expectations.
//
// Expectations annotate the offending line:
//
//	atomic.AddUint64(&x.n, 1) // want `package-level atomic.AddUint64`
//
// Each backquoted or double-quoted string after // want is a regular
// expression; the line must produce exactly one diagnostic per
// expectation (order-independent), and every diagnostic must be
// expected. Layout-dependent analyzers see a fixed GOARCH=amd64 size
// model so expectations are host-independent.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/driver"
)

// Run checks analyzer a against the packages (directories under
// testdata/src) and reports mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := &loader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		std:      importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs:     make(map[string]*driver.Package),
	}
	for _, pkg := range pkgs {
		p, err := ld.load(pkg)
		if err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
		diags, err := driver.Analyze(p, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg, err)
		}
		check(t, p, diags)
	}
}

type loader struct {
	testdata string
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*driver.Package
}

func (ld *loader) load(path string) (*driver.Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.testdata, "src", path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := &types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == "unsafe" {
				return types.Unsafe, nil
			}
			if _, err := os.Stat(filepath.Join(ld.testdata, "src", p)); err == nil {
				dep, err := ld.load(p)
				if err != nil {
					return nil, err
				}
				return dep.Types, nil
			}
			return ld.std.Import(p)
		}),
		Sizes: types.SizesFor("gc", "amd64"),
	}
	p, err := driver.TypeCheck(conf, path, ld.fset, files)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = p
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want (.*)$")

// check compares diagnostics against the // want comments of the
// package's files.
func check(t *testing.T, p *driver.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				for _, pat := range parsePatterns(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad // want pattern %q: %v", pos, pat, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := p.Fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		found := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Category)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, exp.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

// parsePatterns splits the remainder of a // want comment into its
// quoted regular expressions (double-quoted Go strings or backquoted
// literals).
func parsePatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				t.Errorf("%s: unterminated // want string", pos)
				return pats
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Errorf("%s: bad // want string %q: %v", pos, s[:end+1], err)
				return pats
			}
			pats = append(pats, unq)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Errorf("%s: unterminated // want backquote", pos)
				return pats
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Errorf("%s: malformed // want remainder %q", pos, s)
			return pats
		}
	}
	return pats
}
