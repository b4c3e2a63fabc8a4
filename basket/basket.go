// Package basket defines the basket abstract data type of the paper's
// modular baskets queue (§5.2.1) and provides two implementations:
//
//   - Scalable: the paper's scalable basket (Algorithms 8-9) — per-inserter
//     cells for synchronization-free insertion, an FAA-scanned extraction
//     index, and an empty bit that lets exhausted baskets be skipped
//     without touching the contended counter.
//   - ClosingStack: a Treiber-stack basket that closes on first extraction,
//     modeling the original baskets queue's implicit basket and the
//     property that made that queue linearizable.
//
// A basket is a linearizable set: Insert may fail nondeterministically,
// Extract removes an arbitrary element, and Empty admits false negatives.
// Not every linearizable basket makes the baskets queue linearizable; see
// the package-level documentation of repro/queue/sbq for the property the
// queue relies on.
package basket

// Basket is the abstract data type of paper §5.2.1, extended with ResetOwn
// to support the node-reuse optimization of §5.2.2.
type Basket[T any] interface {
	// Insert attempts to add x on behalf of inserter id and reports
	// whether it succeeded. It may fail nondeterministically. Each
	// inserter id may be used by at most one goroutine at a time.
	Insert(id int, x T) bool
	// Extract removes and returns some element, or ok=false if the
	// basket is empty or exhausted.
	Extract() (x T, ok bool)
	// Empty reports whether the basket is empty; false negatives are
	// allowed (it may return false for an empty basket, never true for a
	// non-empty one).
	Empty() bool
	// ResetOwn undoes inserter id's single insertion. It must only be
	// called on a basket that was never shared with other goroutines
	// (the unpublished-node reuse of §5.2.2).
	ResetOwn(id int)
}
