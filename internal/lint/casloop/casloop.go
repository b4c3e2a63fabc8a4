// Package casloop defines an Analyzer that flags unbounded
// compare-and-swap retry loops that neither bound their retries, back
// off, nor account the failures in telemetry.
//
// # Analyzer casloop
//
// casloop: report unaccounted unbounded CAS retry loops.
//
// The paper's core observation (§3, §6.1) is that failed CAS operations
// are not free — they are the dominant cost on contended queues — so a
// retry loop that silently spins on CompareAndSwap hides exactly the
// signal this repository exists to measure. Every CAS loop must do at
// least one of:
//
//   - bound its iterations (a three-clause for with init, condition and
//     post),
//   - back off between attempts (runtime.Gosched, time.Sleep, or any
//     callee whose name mentions spin/backoff/yield/pause/sleep), or
//   - record the retry in telemetry (a call to Inc/Add/Observe on a
//     repro/internal/obs *Stats inside the loop).
//
// Genuinely convergent helping loops — monotonic advance CASes where a
// failure proves another thread made progress — may be suppressed with
//
//	//lint:ignore casloop failure implies anothers progress (monotonic)
//
// The loop examined is the innermost for statement enclosing the CAS; a
// CompareAndSwap in a loop's condition expression counts too. Both the
// legacy sync/atomic functions and the CompareAndSwap methods of typed
// atomics are recognized.
package casloop

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags unbounded, unaccounted CAS retry loops.
var Analyzer = &analysis.Analyzer{
	Name: "casloop",
	Doc:  "report unbounded CompareAndSwap retry loops with no bound, backoff, or telemetry",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			checkLoop(pass, loop)
			return true
		})
	}
	return nil, nil
}

func checkLoop(pass *analysis.Pass, loop *ast.ForStmt) {
	// A fully-specified three-clause for is considered bounded.
	if loop.Init != nil && loop.Cond != nil && loop.Post != nil {
		return
	}
	casPos, hasCAS := findCAS(pass, loop)
	if !hasCAS {
		return
	}
	if hasMitigation(pass, loop) {
		return
	}
	pass.Reportf(casPos,
		"unbounded CAS retry loop with no bound, backoff, or telemetry: bound the retries, back off, or count the failure on an *obs.Stats (the paper's §3 failed-CAS accounting)")
}

// findCAS returns the position of a CompareAndSwap call whose innermost
// enclosing for statement is loop (the condition counts as inside).
func findCAS(pass *analysis.Pass, loop *ast.ForStmt) (pos token.Pos, found bool) {
	walkLoopBody(loop, func(n ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if isCAS(pass.TypesInfo, call) {
			pos, found = call.Pos(), true
		}
	})
	return pos, found
}

func isCAS(info *types.Info, call *ast.CallExpr) bool {
	fn := lintutil.Callee(info, call)
	if fn == nil {
		return false
	}
	if op, _, ok := lintutil.LegacyAtomic(fn); ok {
		return op == "CompareAndSwap"
	}
	// Methods: typed atomics' CompareAndSwap, and any in-repo CAS-shaped
	// method (the simulated machine exposes CAS/TxCAS words).
	name := fn.Name()
	return name == "CompareAndSwap" || name == "CAS" || name == "TxCAS"
}

// hasMitigation reports whether the loop body contains a bounding,
// backoff, or telemetry call.
func hasMitigation(pass *analysis.Pass, loop *ast.ForStmt) bool {
	found := false
	walkLoopBody(loop, func(n ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		if isBackoff(fn) || isTelemetry(fn) {
			found = true
		}
	})
	return found
}

func isBackoff(fn *types.Func) bool {
	if pkg := fn.Pkg(); pkg != nil {
		switch {
		case pkg.Path() == "runtime" && fn.Name() == "Gosched":
			return true
		case pkg.Path() == "time" && fn.Name() == "Sleep":
			return true
		}
	}
	name := strings.ToLower(fn.Name())
	for _, hint := range []string{"spin", "backoff", "yield", "pause", "sleep", "gosched"} {
		if strings.Contains(name, hint) {
			return true
		}
	}
	return false
}

// isTelemetry recognizes recorder calls from repro/internal/obs (or any
// package named obs): Stats.Inc, Add, Observe.
func isTelemetry(fn *types.Func) bool {
	switch fn.Name() {
	case "Inc", "Add", "Observe":
	default:
		return false
	}
	pkg := fn.Pkg()
	return pkg != nil && (pkg.Name() == "obs" || strings.HasSuffix(pkg.Path(), "/obs"))
}

// walkLoopBody visits the loop's condition and body without descending
// into nested for statements or function literals: a CAS in a nested
// loop belongs to that loop's analysis, and mitigation in a nested scope
// does not pace this one.
func walkLoopBody(loop *ast.ForStmt, visit func(ast.Node)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if n != loop {
				return false
			}
		case *ast.RangeStmt, *ast.FuncLit:
			return false
		}
		visit(n)
		return true
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, walk)
	}
	ast.Inspect(loop.Body, walk)
}
