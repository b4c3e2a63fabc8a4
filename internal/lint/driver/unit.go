package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
)

// vetConfig mirrors the JSON configuration the go command writes for a
// vet tool (x/tools' unitchecker.Config). One invocation analyzes one
// package unit; dependencies arrive as compiler export data files.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// printVersion answers the go command's `-V=full` tool handshake. The
// output format is prescribed: "<name> version devel ... buildID=<hash>"
// (the hash keys go vet's result cache, so it must change whenever the
// tool binary does).
func printVersion() {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", progname, id)
}

// unitCheck runs the analyzers on the single package unit described by
// cfgFile, per the go vet tool protocol, and returns the exit code
// (0 ok, 1 tool failure, 2 diagnostics reported).
func unitCheck(analyzers []*analysis.Analyzer, cfgFile string) int {
	cfg, err := readVetConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfcheck:", err)
		return 1
	}
	// The go command expects a facts file for every unit, including
	// fact-only dependency visits. lfcheck's analyzers are fact-free, so
	// the file is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "lfcheck:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	pkg, err := typeCheckUnit(cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "lfcheck: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags, err := Analyze(pkg, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfcheck: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Category)
	}
	return 2
}

func readVetConfig(cfgFile string) (*vetConfig, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", cfgFile, err)
	}
	return cfg, nil
}

// typeCheckUnit parses and type-checks the unit's Go files, importing
// dependencies through the export data files named in the config.
func typeCheckUnit(cfg *vetConfig) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     TargetSizes(),
	}
	return TypeCheck(conf, cfg.ImportPath, fset, files)
}
