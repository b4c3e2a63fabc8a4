// Package lint assembles the repository's lock-free lint suite: custom
// go/analysis-style analyzers enforcing the low-level invariants the
// paper's argument rests on (§3 CAS accounting, §4.3 false sharing,
// 32-bit atomic alignment, copy and mixed-access discipline, and the
// zero-allocation hot paths).
//
// Run them via cmd/lfcheck; see each analyzer package for its invariant.
package lint

import (
	"repro/internal/lint/align64"
	"repro/internal/lint/allocfree"
	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicmix"
	"repro/internal/lint/casloop"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/nocopy"
	"repro/internal/lint/padcheck"
)

// Analyzers returns the full suite in reporting order. hotpath precedes
// allocfree, its requirer; the driver would order them anyway, but
// listing both keeps hotpath's own directive-hygiene diagnostics on.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		align64.Analyzer,
		padcheck.Analyzer,
		casloop.Analyzer,
		nocopy.Analyzer,
		hotpath.Analyzer,
		allocfree.Analyzer,
	}
}
