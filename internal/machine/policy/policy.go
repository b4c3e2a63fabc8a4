// Package policy makes the TxCAS retry/fallback decision pluggable.
//
// The paper's TxCAS (§4) assumes HTM that always eventually commits and
// hides its retry loop inside the algorithm. Real deployments cannot: RTM
// aborts spuriously, loses capacity, and — since Intel's microcode updates
// that disable TSX — may refuse to start transactions at all. Brown's
// "Template for Implementing Fast Lock-free Trees Using HTM" (PAPERS.md)
// shows that the fallback-path design dominates behaviour in exactly these
// regimes, and Alistarh et al. show the hybrid boundary must be explicit.
// This package is that boundary: a RetryPolicy decides, before every
// transactional attempt, whether to try HTM now, wait and then try, or
// abandon HTM for the guaranteed software path (a plain CAS).
//
// Policies are pure decision procedures: they never touch memory and draw
// randomness only through the randN stream handed to Decide, so a policy on
// the simulated machine preserves the machine's determinism (equal seeds,
// equal executions) and the same policy values can pace the native queues.
//
// The built-ins cover the design space the literature names:
//
//   - ImmediateRetry — retry instantly while the hardware says retrying can
//     help; fall back once it says it cannot (Disabled).
//   - ExponentialBackoff — randomized exponential delay between attempts,
//     the classic contention-control middle ground.
//   - AbortBudget — Brown's template: bounded attempts on the fast path,
//     then the fallback path unconditionally.
//   - DelayedCAS — the paper's §4.1 software baseline expressed as a
//     policy: skip HTM entirely, wait the tuned delay, CAS.
package policy

// Abort describes the state of one TxCAS operation when a retry decision is
// needed. It deliberately mirrors machine.AbortStatus with plain fields
// instead of importing it, so policies compile for the native track too.
type Abort struct {
	// Attempt is the number of transactional attempts completed so far.
	// Policies are consulted before every attempt, so the first call of an
	// operation sees Attempt == 0 with no reason flags set — which is how
	// DelayedCAS can divert an operation before it ever touches HTM.
	Attempt int

	// Reason flags of the most recent abort (all false when Attempt == 0).
	// They carry the same meaning as machine.AbortStatus.
	Conflict bool
	Explicit bool
	Capacity bool
	Disabled bool
	Nested   bool
	// Code is the explicit-abort code when Explicit is set.
	Code uint8

	// Requester is the identity of the conflicting thread/core the failure
	// report attributed the abort to, or -1 (txcas.NoWriter) when unknown.
	// On the simulated track it is the requester core from the HTM abort
	// status. The native engine consults a policy only before its single
	// attempt on a one-shot link, so it always passes NoRequester. It is
	// the sharer hint contention-aware policies can act on — the paper's
	// profit-from-failure signal (§3). Executors that have no hint must set
	// NoRequester explicitly: thread 0 is a valid identity, so the zero
	// value is not a safe "unknown".
	Requester int
}

// NoRequester is the Requester value of an Abort carrying no sharer
// identity. It equals txcas.NoWriter (this package cannot import
// repro/internal/txcas without a cycle).
const NoRequester = -1

// Spurious reports whether the last abort carried no cause flag — the
// zero-status abort an interrupt produces through _xbegin.
func (a Abort) Spurious() bool {
	return a.Attempt > 0 && !a.Conflict && !a.Explicit && !a.Capacity && !a.Disabled
}

// Decision is a policy's verdict for the upcoming attempt.
type Decision struct {
	// Fallback abandons the transactional path: the executor resolves the
	// operation with its guaranteed software fallback (a plain CAS).
	Fallback bool
	// Delay stalls the thread this many cycles before acting (before the
	// transactional attempt, or before the fallback CAS when Fallback is
	// set). On the native track cycles convert at the usual 2.5 cycles/ns.
	Delay uint64
}

// RetryPolicy decides, before every transactional attempt of an operation,
// whether to proceed, wait, or take the software fallback.
//
// randN returns a deterministic pseudo-random number in [0, n) drawn from
// the calling thread's stream; policies must use it for any randomness so
// simulated runs stay replayable. Implementations must be stateless or
// immutable: one policy value is shared by every thread of an experiment.
type RetryPolicy interface {
	Decide(a Abort, randN func(n uint64) uint64) Decision
}

// ImmediateRetry retries instantly after every abort for which retrying can
// help, and falls back only when the hardware reports HTM disabled. Jitter
// adds up to that many cycles of randomized delay before each retry; the
// simulated machine is perfectly symmetric, so some jitter is needed to
// break retry lockstep (the role Options.RetryJitter plays in the legacy
// loop).
type ImmediateRetry struct {
	Jitter uint64
}

// Decide implements RetryPolicy.
func (p ImmediateRetry) Decide(a Abort, randN func(uint64) uint64) Decision {
	if a.Disabled {
		return Decision{Fallback: true}
	}
	if a.Attempt > 0 && p.Jitter > 0 {
		return Decision{Delay: randN(p.Jitter)}
	}
	return Decision{}
}

// ExponentialBackoff waits a randomized, exponentially growing delay before
// each retry: attempt k (k >= 1) draws uniformly from [0, min(Base<<(k-1),
// Max)). It falls back when the hardware reports HTM disabled.
type ExponentialBackoff struct {
	// Base is the bound of the first backoff window, in cycles.
	Base uint64
	// Max caps the window; zero means 64*Base.
	Max uint64
}

// Decide implements RetryPolicy.
func (p ExponentialBackoff) Decide(a Abort, randN func(uint64) uint64) Decision {
	if a.Disabled {
		return Decision{Fallback: true}
	}
	if a.Attempt == 0 || p.Base == 0 {
		return Decision{}
	}
	max := p.Max
	if max == 0 {
		max = p.Base << 6
	}
	w := p.Base
	// Grow the window without overflowing on large attempt counts.
	for i := 1; i < a.Attempt && w < max; i++ {
		w <<= 1
	}
	if w > max {
		w = max
	}
	return Decision{Delay: randN(w)}
}

// AbortBudget is Brown's HTM template: at most Budget transactional
// attempts, then the software fallback unconditionally. Until the budget is
// spent, Inner paces the retries (nil means ImmediateRetry{} with no
// jitter). HTM-disabled aborts spend the whole budget at once — retrying a
// disabled _xbegin cannot succeed.
type AbortBudget struct {
	// Budget is the number of transactional attempts allowed; zero or
	// negative means fall back immediately (a pure software-path policy).
	Budget int
	// Inner paces retries within the budget.
	Inner RetryPolicy
}

// Decide implements RetryPolicy.
func (p AbortBudget) Decide(a Abort, randN func(uint64) uint64) Decision {
	if a.Attempt >= p.Budget || a.Disabled {
		return Decision{Fallback: true}
	}
	if p.Inner != nil {
		d := p.Inner.Decide(a, randN)
		d.Fallback = false // the budget, not the inner policy, ends the fast path
		return d
	}
	return Decision{}
}

// DelayedCAS is the paper's §4.1 software baseline as a policy: never use
// HTM; wait Delay cycles (to let a winner's invalidation arrive, the same
// role as TxCAS's intra-transaction delay) and resolve with a plain CAS.
// Jitter randomizes the wait by up to that many extra cycles.
type DelayedCAS struct {
	Delay  uint64
	Jitter uint64
}

// Decide implements RetryPolicy.
func (p DelayedCAS) Decide(a Abort, randN func(uint64) uint64) Decision {
	d := p.Delay
	if p.Jitter > 0 {
		d += randN(p.Jitter)
	}
	return Decision{Fallback: true, Delay: d}
}
