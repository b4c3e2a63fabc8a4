// Package core implements the paper's primary contribution on the simulated
// machine: TxCAS, a compare-and-set built from a hardware transaction whose
// failures are not serialized by the cache coherence protocol (paper §3–§4).
//
// A TxCAS executes the CAS read in a nested transaction and the CAS write
// in the main transaction, with a tuned delay in between. The delay raises
// the chance that losing TxCASs abort before issuing their write (keeping
// pending GetM requests off the line) and lets one successful write abort
// many concurrent readers at once. After an abort, TxCAS fails only if the
// target location actually changed; otherwise it retries.
package core

import (
	"repro/internal/machine"
	"repro/internal/machine/policy"
)

// DefaultDelay is the intra-transaction delay (paper §4.1), in cycles.
// The paper empirically tunes ~270ns on its platform; at the simulator's
// 2.5 cycles/ns scale that is ~675 cycles.
const DefaultDelay = 675

// DefaultPostAbortDelay is the wait before re-reading the target location
// after a conflict abort (paper §4.2), sized to let an in-flight writer
// finish its GetM so the check does not trip it. Intra-socket, the window
// is a few message delays.
const DefaultPostAbortDelay = 150

// DefaultMaxRetries bounds transactional retries before TxCAS falls back to
// a standard CAS, making it wait-free (paper §4, "Progress"). The paper
// reports the fallback never fires in practice; ours exists and is counted.
const DefaultMaxRetries = 64

// DefaultRetryJitter bounds the randomized delay DefaultOptions' policy
// waits before a transactional retry (policy.ImmediateRetry.Jitter). Real
// hardware gets this symmetry-breaking for free from timing noise; the
// simulator is perfectly symmetric, so without jitter simultaneous writers
// can re-abort each other in lockstep indefinitely.
const DefaultRetryJitter = 32

// DefaultDelayJitter is the randomized intra-transaction delay spread (see
// Options.DelayJitter), ~10% of DefaultDelay.
const DefaultDelayJitter = 64

// abortCodeValueMismatch is the explicit-abort code used when the read step
// observes a value different from the expected one.
const abortCodeValueMismatch = 1

// Options tunes a TxCAS instance.
type Options struct {
	// Delay is the intra-transaction delay in cycles (§4.1). Zero means
	// no delay (which serializes successful TxCASs like standard CAS at
	// low concurrency).
	Delay uint64
	// PostAbortDelay is the pre-check delay after a conflict abort (§4.2).
	PostAbortDelay uint64
	// MaxRetries bounds transactional attempts before the standard-CAS
	// fallback. Zero means DefaultMaxRetries.
	MaxRetries int
	// DelayJitter randomizes the intra-transaction delay by up to this
	// many cycles. It models the timing noise of a real delay loop
	// (cache effects, frequency scaling); with none, contending TxCASs
	// that were aborted by the same invalidation wave re-issue their
	// writes in the same cycle forever.
	DelayJitter uint64
	// Policy paces the retry loop: it is consulted before every
	// transactional attempt (including the first) and decides retry-now,
	// backoff or software fallback per abort (see
	// repro/internal/machine/policy). MaxRetries remains a hard cap for
	// wait-freedom regardless of what the policy answers. Nil means
	// policy.ImmediateRetry{}, an immediate retry with no jitter.
	Policy policy.RetryPolicy
}

// DefaultOptions returns the tuning used throughout the evaluation.
func DefaultOptions() Options {
	return Options{
		Delay:          DefaultDelay,
		PostAbortDelay: DefaultPostAbortDelay,
		MaxRetries:     DefaultMaxRetries,
		DelayJitter:    DefaultDelayJitter,
		Policy:         policy.ImmediateRetry{Jitter: DefaultRetryJitter},
	}
}

// CAS is a TxCAS executor bound to tuning options; build one with New.
// New(DefaultOptions()) is the evaluated configuration. It draws
// randomness only from the calling proc's stream, so one executor can
// serve every thread of a simulated machine.
type CAS struct {
	opt Options
	// Fallbacks counts operations resolved by the standard-CAS fallback.
	Fallbacks uint64
	// Attempts counts transactional attempts across all operations.
	Attempts uint64
	// Ops counts completed TxCAS operations.
	Ops uint64
}

// New returns a TxCAS executor with the given options.
func New(opt Options) *CAS {
	if opt.MaxRetries == 0 {
		opt.MaxRetries = DefaultMaxRetries
	}
	if opt.Policy == nil {
		opt.Policy = policy.ImmediateRetry{}
	}
	return &CAS{opt: opt}
}

// Do performs TxCAS(ptr, old, new) on proc p: if the word at ptr equals
// old, store new and return true; otherwise return false. This is the
// paper's Algorithm 1. It fails only if the location's value actually
// changed (CAS semantics, §4.2).
//
// Options.Policy is consulted before every transactional attempt and can
// retry, delay, or divert to the software fallback; the transaction body
// (nested read step, intra-transaction delay, write step) and the
// CAS-semantics checks after an abort are the executor's under every
// policy. MaxRetries caps attempts, so a policy that never answers
// Fallback cannot cost wait-freedom. Each consult's Abort carries the
// attempt count and the last abort's Conflict, Disabled and Nested flags.
//
//lf:hotpath
func (c *CAS) Do(p *machine.Proc, ptr machine.Addr, old, new uint64) bool {
	c.Ops++
	var a policy.Abort
	for attempt := 0; ; attempt++ {
		a.Attempt = attempt
		d := c.opt.Policy.Decide(a, p.RandN)
		if d.Delay > 0 {
			p.Delay(d.Delay)
		}
		if d.Fallback || attempt >= c.opt.MaxRetries {
			// The standard CAS of the wait-free fallback path.
			c.Fallbacks++
			return p.FallbackCAS(ptr, old, new)
		}
		c.Attempts++
		delay := c.opt.Delay
		if c.opt.DelayJitter > 0 {
			delay += p.RandN(c.opt.DelayJitter)
		}
		//lint:ignore allocfree the transaction body closure is the machine API's shape; the simulated track prices operations in simulated cycles, so Go-allocator cost is outside its measurement (the native queues are the zero-alloc surface)
		committed, st := p.Transaction(func(tx *machine.Tx) {
			//lint:ignore allocfree nested read-step closure, same machine-API shape as the transaction body above
			tx.Nested(func(tx *machine.Tx) {
				value := tx.Read(ptr) // CAS read step
				if value != old {
					tx.Abort(abortCodeValueMismatch)
				}
				tx.Delay(delay) // intra-transaction delay (§4.1)
			})
			tx.Write(ptr, new) // CAS write step
		})
		if committed {
			return true
		}
		if st.Explicit && st.Code == abortCodeValueMismatch {
			// Read step saw a different value: fail without ever having
			// issued the write step's GetM.
			return false
		}
		a = policy.Abort{Conflict: st.Conflict, Disabled: st.Disabled, Nested: st.Nested}
		if st.Conflict && st.Nested {
			// Conflict during the read step: another TxCAS's write is in
			// flight and this attempt died before issuing its own. Wait
			// for the winner's GetM to complete — so our check does not
			// trip it — then fail if the location indeed changed (§4.2).
			// This check is CAS semantics, not pacing, so it stays in the
			// executor under every policy.
			p.Delay(c.opt.PostAbortDelay)
			if p.Read(ptr) != old {
				return false
			}
		}
	}
}
