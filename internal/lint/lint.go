// Package lint assembles the repository's lock-free lint suite: custom
// go/analysis-style analyzers enforcing the low-level invariants the
// paper's argument rests on that neither the compiler nor go vet checks
// (§3 CAS accounting, §4.3 false sharing, typed atomics only, and the
// zero-allocation hot paths). Typed atomics make a plainly accessed or
// misaligned atomic word unrepresentable, and go vet's copylocks check
// reports copies of them and of sync locks.
//
// Run them with go vet -vettool and cmd/lfcheck; see each analyzer
// package for its invariant.
package lint

import (
	"repro/internal/lint/allocfree"
	"repro/internal/lint/analysis"
	"repro/internal/lint/casloop"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/padcheck"
	"repro/internal/lint/typedatomic"
)

// Analyzers returns the full suite in reporting order. hotpath precedes
// allocfree, its requirer; the driver would order them anyway, but
// listing both keeps hotpath's own directive-hygiene diagnostics on.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		typedatomic.Analyzer,
		padcheck.Analyzer,
		casloop.Analyzer,
		hotpath.Analyzer,
		allocfree.Analyzer,
	}
}
