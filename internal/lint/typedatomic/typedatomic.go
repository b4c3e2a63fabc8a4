// Package typedatomic defines an Analyzer that reports every call of a
// package-level sync/atomic function and names the typed atomic to use
// instead.
//
// # Analyzer typedatomic
//
// typedatomic: report package-level sync/atomic calls.
//
// A word operated on by atomic.AddUint64 and friends is a plain field.
// Nothing stops other code from reading or writing it plainly, a data
// race the race detector reports only if a test schedules it, and a
// counted CAS on a word someone else reads plainly counts nothing (paper
// §3). On 386, arm and other 32-bit ports a 64-bit call also panics at
// run time unless the word is 8-byte aligned, which Go guarantees a plain
// word only as the first word of an allocation or a variable. The typed
// atomics (atomic.Uint64, atomic.Pointer[T], ...) rule out both by
// construction: their value is reachable only through atomic methods, and
// atomic.Int64 and atomic.Uint64 are 8-byte aligned on every platform.
// Copying one after first use is go vet's copylocks finding.
package typedatomic

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags package-level sync/atomic calls.
var Analyzer = &analysis.Analyzer{
	Name: "typedatomic",
	Doc:  "report package-level sync/atomic calls; typed atomics replace them",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, call)
			op, typ, ok := lintutil.LegacyAtomic(fn)
			if !ok {
				return true
			}
			if typ == "Pointer" {
				typ = "Pointer[T]"
			}
			pass.Reportf(call.Pos(), "package-level atomic.%s: declare the word as atomic.%s and call its %s method", fn.Name(), typ, op)
			return true
		})
	}
	return nil, nil
}
