// Package txcas defines the repository's unified CAS-primitive surface —
// Primitive and its structured failure report, Outcome — and provides the
// native software-TxCAS engine for one-shot links.
//
// The paper's core trick (§3) is that a CAS built from a hardware
// transaction turns *failure* into information: a losing TxCAS learns that
// it lost, who beat it, and does so without serializing through the cache
// coherence protocol. The simulated track reproduces that literally
// (repro/internal/core over repro/internal/machine) and implements
// Primitive through core.Bound. Go exposes no HTM, so the native track
// approximates it in software, in the spirit of Zhang/Chabbi et al.'s
// optimistic-concurrency-for-Go work (PAPERS.md): GuardedCAS watches the
// link it is about to CAS during a calibrated speculation window (the
// transaction body and the §4.1 intra-transaction delay), and abandons
// the CAS once the link fills — the read-step abort — naming the winner
// from the node it finds there. repro/queue/sbq's try_append is its one
// caller.
package txcas

// Loc identifies one CAS target within a Primitive's location space: a
// machine.Addr on the simulated track (machine.Addr is an alias of uint64,
// so the conversion is free).
type Loc = uint64

// NoWriter is the LastWriter value of an Outcome that carries no sharer
// identity (no conflict, or the abort status named no requester).
const NoWriter = -1

// Outcome is the structured result of one TxCAS operation. Where a plain
// CompareAndSwap answers only true/false, an Outcome reports how the
// operation went: how hard it had to try, whether it was resolved on the
// guaranteed software path, and — on failure — what it learned about the
// contention that beat it. That last part is the paper's profit-from-
// failure signal (§3): retry policies and the baskets queue act on it
// instead of blindly re-issuing doomed atomics.
type Outcome struct {
	// OK reports whether the CAS took effect (the location held the
	// expected value and was swung to the new one).
	OK bool
	// Fallback reports that the operation was resolved by the wait-free
	// plain-CAS slow path (speculation budget exhausted, or the policy
	// diverted it), per Brown's fast-path/fallback template.
	Fallback bool
	// Attempts is the spin depth: how many transactional attempts the
	// operation consumed.
	Attempts int
	// SoftAborts counts attempts abandoned *before* issuing the CAS
	// because a conflicting winner was detected mid-window — the cheap
	// failures the paper's TxCAS gets from read-step aborts. A soft abort
	// never puts a doomed atomic on the contended line.
	SoftAborts int
	// VersionDelta is a lower bound on the number of winning writes to the
	// location observed during the operation: at least 1 on any genuine
	// failure (the value demonstrably changed), zero on an uncontended
	// success.
	VersionDelta uint64
	// LastWriter is the identity of the most recent winning writer the
	// operation observed, or NoWriter when none was captured: the
	// conflicting requester core reported by the HTM abort status.
	LastWriter int
}

// Contended reports whether the operation observed any competing winner
// (via a soft abort or a version advance).
func (o Outcome) Contended() bool { return o.SoftAborts > 0 || o.VersionDelta > 0 }

// SharerKnown reports whether the Outcome carries a concrete sharer
// identity — the paper's "failure identifies the contender" property.
func (o Outcome) SharerKnown() bool { return o.LastWriter != NoWriter }

// Primitive is the unified CAS-primitive interface: a compare-and-set
// whose result is a structured failure report rather than a bare bool.
// thread identifies the calling simulated thread; implementations use it
// for sharer attribution and per-thread state.
//
// The implementation is *core.Bound (simulated track); repro/internal/
// simqueue drives it through PrimitiveAppend. The native track's linking
// CAS is one-shot and needs no Outcome: see GuardedCAS.
type Primitive interface {
	TxCAS(thread int, loc Loc, old, new uint64) Outcome
}
