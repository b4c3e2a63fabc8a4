package sbq

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/txcas"
)

// Option configures a Queue built with New. Options are free of the
// element type, so call sites read:
//
//	q := sbq.New[string](
//		sbq.WithEnqueuers(8),
//		sbq.WithTxCAS(),
//		sbq.WithRecorder(rec),
//	)
type Option func(*options)

type options struct {
	// enqueuers is nil until WithEnqueuers sets it: no int a caller passes
	// can collide with the "unset" sentinel.
	enqueuers *int
	txcas     bool
	txcasOpts []txcas.Option
	rec       *obs.Stats
}

// WithEnqueuers sets the number of producer handles the queue will issue
// (each producer goroutine needs its own Handle). Baskets are sized from
// it. The default is GOMAXPROCS; explicit non-positive values panic in New.
func WithEnqueuers(n int) Option {
	return func(o *options) { o.enqueuers = &n }
}

// WithTxCAS configures the linking CAS of try_append, which always runs
// through the native software-TxCAS engine (repro/internal/txcas). Without
// this option the engine's window is 0: a plain CAS, the paper's SBQ-CAS.
// With it, contending enqueuers watch the link they are about to CAS for
// a calibrated speculation window and abandon CASes a winner has already
// doomed — the paper's profit-from-failure effect (§3) on real cores: the
// loser still joins the winner's basket, but its doomed atomic never lands
// on the contended line, and the engine names the winner. opts tune the
// engine: txcas.WithWindow (default the §4.1 ~270ns) and txcas.WithPolicy
// to pace the attempt with a repro/internal/machine/policy RetryPolicy;
// policy.DelayedCAS{Delay: 675} gives the paper's ~270ns delayed CAS. The
// queue's recorder is attached automatically, so soft aborts and sharer
// hints land in the same snapshot as the CAS counters.
func WithTxCAS(opts ...txcas.Option) Option {
	return func(o *options) {
		o.txcas = true
		o.txcasOpts = append(o.txcasOpts, opts...)
	}
}

// WithRecorder attaches a telemetry recorder (see repro/internal/obs): the
// queue reports operation counts, try_append CAS attempts and failures, and
// retries, and its baskets report insert/extract outcomes into the same
// recorder. When r carries a flight recorder (obs.NewWithEvents), the queue
// also emits timeline events into it. A nil recorder disables telemetry —
// the disabled path costs one nil check per event site.
func WithRecorder(r *obs.Stats) Option {
	return func(o *options) { o.rec = r }
}

// buildOptions applies opts and resolves the enqueuer count.
func buildOptions(opts []Option) (options, int) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	enqueuers := runtime.GOMAXPROCS(0)
	if o.enqueuers != nil {
		enqueuers = *o.enqueuers
	}
	if enqueuers <= 0 {
		panic("sbq: enqueuers must be positive")
	}
	return o, enqueuers
}
