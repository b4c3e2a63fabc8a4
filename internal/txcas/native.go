package txcas

import (
	"sync/atomic"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/spin"
)

// This file is the native software-TxCAS engine. It maps the paper's
// TxCAS (Algorithm 1) onto plain Go atomics for one-shot links — pointer
// fields that are nil until linked and never nil again, like the next
// field of a queue node:
//
//   hardware read set        → the link itself, polled mid-window
//   §4.1 intra-tx delay      → a calibrated speculation window (no clock
//                              reads on the hot path; see repro/internal/spin)
//   read-step abort          → a soft abort: the doomed CAS is never issued
//   "who aborted me"         → the linker id the winner stored in its node
//                              while the node was still private
//   software fallback (§4)   → a policy Fallback decision: delay, then one
//                              plain CAS (the §4.1 delayed CAS)
//
// The engine watches the very word it is about to CAS, as the paper's
// read step does, so it needs no metadata besides the link: winners
// publish nothing, and the linearization point is always the plain
// CompareAndSwap on the link.

// DefaultWindow is the default speculation window, matching the paper's
// empirically tuned ~270ns delayed-CAS/intra-transaction delay (§4.1,
// §6.1).
const DefaultWindow = 270 * time.Nanosecond

// watchChecks is how many times a speculation window polls the link: the
// window is spun in slices with one poll between slices, so the final
// poll lands immediately before the CAS would be issued.
const watchChecks = 8

// cyclesPerNS converts the simulated track's cycle-denominated policy
// delays to wall time (its 2.5 GHz convention), so one policy value means
// the same delay on both tracks.
const cyclesPerNS = 2.5

// Node constrains the target of a guarded link: a pointer to T that
// reports the id of the thread that linked it. The linker must store that
// id while the node is still private, so any thread that loads the node
// from the link reads it without a race.
type Node[T any] interface {
	*T
	Linker() int
}

// Option configures an Engine.
type Option func(*options)

type options struct {
	window time.Duration // <0 = DefaultWindow sentinel
	pol    policy.RetryPolicy
	rec    *obs.Stats
}

// WithWindow sets the speculation window: how long a contender watches
// the link before issuing its CAS, playing the role of the §4.1
// intra-transaction delay. The spin is calibrated (no clock reads on the
// hot path). Zero disables speculation: every attempt issues its CAS
// immediately, which is a plain CAS with the engine's accounting. The
// default is DefaultWindow.
func WithWindow(d time.Duration) Option {
	return func(o *options) { o.window = d }
}

// WithPolicy paces the engine with a retry policy from
// repro/internal/machine/policy, the same policy values that pace the
// simulated track's TxCAS. A link is one-shot, so only the pre-attempt
// decision is consulted. A non-fallback Decision.Delay (simulated cycles,
// converted at 2.5 cycles/ns) replaces the engine window; a Fallback
// decision skips the watch, spins the decided delay and issues one plain
// CAS, so policy.DelayedCAS reproduces the classic §4.1 delayed CAS.
func WithPolicy(p policy.RetryPolicy) Option {
	return func(o *options) { o.pol = p }
}

// WithRecorder attaches telemetry (see repro/internal/obs): issued CAS
// attempts/failures land in CASAttempts/CASFailures, policy-fallback CASes
// also in CASFallbacks, abandoned attempts in TxSoftAborts, and every
// failure (which identifies its winner: the node now in the link) in
// TxSharerHints. Soft aborts also emit EvTxAbort timeline events (reason
// AbortConflict, requester = the winner's linker id) when the recorder
// carries a flight recorder (obs.NewWithEvents), so sbqtrace renders the
// native profit-from-failure effect with the same event vocabulary as the
// simulated machine.
func WithRecorder(r *obs.Stats) Option {
	return func(o *options) { o.rec = r }
}

// Engine is the native software-TxCAS executor. One Engine serves any
// number of threads and links; it holds only configuration, telemetry and
// the policy's randomness stream.
type Engine struct {
	window        uint64 // speculation window, calibrated spin iterations
	pol           policy.RetryPolicy
	itersPerCycle float64
	randN         func(uint64) uint64
	rec           *obs.Stats
	ev            obs.EventRecorder
	_             [64]byte
	//lf:contended policy randomness stream shared by every thread
	rng atomic.Uint64
	_   [56]byte
}

// NewEngine returns an engine configured by opts. Construction converts
// the window and policy delays to calibrated spin iterations (see
// repro/internal/spin), so the hot path reads no clock.
func NewEngine(opts ...Option) *Engine {
	o := options{window: -1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.window < 0 {
		o.window = DefaultWindow
	}
	e := &Engine{
		window: spin.ItersFor(o.window),
		pol:    o.pol,
		rec:    o.rec,
		ev:     o.rec.Events(),
	}
	if o.pol != nil {
		// Only policy delays need the rate; a window-0 engine never
		// calibrates.
		e.itersPerCycle = spin.PerNS() / cyclesPerNS
	}
	e.rng.Store(0x9E3779B97F4A7C15)
	// The policy randomness stream: a cheap xorshift mix. The native track
	// makes no determinism promise; it only needs jitter without clock
	// reads.
	e.randN = func(n uint64) uint64 {
		x := e.rng.Add(0xBF58476D1CE4E5B9)
		x ^= x >> 30
		x *= 0x94D049BB133111EB
		x ^= x >> 27
		return x % n
	}
	return e
}

// event emits one timeline event if a flight recorder is attached.
func (e *Engine) event(k obs.EventKind, thread int, arg uint64) {
	if ev := e.ev; ev != nil {
		ev.Event(k, int32(thread), arg)
	}
}

// softAborted records one abandoned attempt, the native read-step abort,
// naming the winner that doomed it.
func (e *Engine) softAborted(thread, winner int) {
	if r := e.rec; r != nil {
		r.Inc(obs.TxSoftAborts)
		r.Inc(obs.TxSharerHints)
	}
	e.event(obs.EvTxAbort, thread, obs.AbortArg(obs.AbortConflict, winner, 0))
}

// casFailed records an issued CAS that lost to a winner the watch missed.
func (e *Engine) casFailed(thread int) {
	if r := e.rec; r != nil {
		r.Inc(obs.CASFailures)
		r.Inc(obs.TxSharerHints)
	}
	e.event(obs.EvCASFailure, thread, 0)
}

// cyclesToIters converts a cycle-denominated policy delay to calibrated
// spin iterations (at least 1).
func (e *Engine) cyclesToIters(cycles uint64) uint64 {
	n := float64(cycles) * e.itersPerCycle
	if n < 1 {
		return 1
	}
	return uint64(n)
}

// watch spins iters in slices, polling link between slices, and reports
// whether it was linked before the window elapsed. The final poll is
// immediately before the caller would issue its CAS.
func watch[T any](link *atomic.Pointer[T], iters uint64) bool {
	slice := iters / watchChecks
	if slice == 0 {
		slice = 1
	}
	for spent := uint64(0); spent < iters; spent += slice {
		spin.Iters(slice)
		if link.Load() != nil {
			return true
		}
	}
	return false
}

// GuardedCAS tries to link n into the one-shot link, CAS(link, nil, n),
// and reports whether n was linked. The caller must have seen link nil;
// thread is its id, the lane of its timeline events.
//
// There is no retry loop: a failed linking CAS is permanent (the baskets
// queue profits from the failure instead of retrying). Within the window
// the contender watches the link itself, like the read set of the paper's
// TxCAS: if the link fills, the pending CAS can no longer succeed, so the
// contender abandons it before it reaches the line (a soft abort) and
// names the winner from the node it sees. A soft abort therefore implies
// the link is non-nil, by construction. A policy Fallback decision skips
// the watch: delay, then one plain CAS.
//
//lf:hotpath invoked by every try_append in repro/queue/sbq
func GuardedCAS[T any, P Node[T]](e *Engine, thread int, link *atomic.Pointer[T], n P) bool {
	window, fallback := e.window, false
	if e.pol != nil {
		d := e.pol.Decide(policy.Abort{}, e.randN)
		if d.Fallback {
			window, fallback = 0, true
			if d.Delay > 0 {
				spin.Iters(e.cyclesToIters(d.Delay))
			}
		} else if d.Delay > 0 {
			window = e.cyclesToIters(d.Delay)
		}
	}
	if window > 0 && watch(link, window) {
		e.softAborted(thread, P(link.Load()).Linker())
		return false
	}
	if r := e.rec; r != nil {
		r.Inc(obs.CASAttempts)
		if fallback {
			r.Inc(obs.CASFallbacks)
		}
	}
	e.event(obs.EvCASAttempt, thread, 0)
	if link.CompareAndSwap(nil, (*T)(n)) {
		return true
	}
	e.casFailed(thread)
	return false
}
