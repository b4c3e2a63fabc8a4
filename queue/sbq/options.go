package sbq

import (
	"runtime"

	"repro/basket"
	"repro/internal/obs"
	"repro/internal/txcas"
)

// Option configures a Queue built with New. The element type appears only
// in WithBasket; every other option is type-free, so call sites read:
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
	rec       obs.Recorder
	// newBasket holds a func() basket.Basket[T]; it is typed any because
	// Option is not generic (Go cannot infer a generic option's type
	// parameter from a value-free call like WithEnqueuers(8)). New[T]
	// checks the element type and panics on mismatch.
	newBasket any
	pooled    bool
}

// WithNodePool enables pooled-node mode: nodes recycle through a
// reclaim-backed freelist (per-P via sync.Pool) with epoch-deferred
// reuse, and their baskets are re-armed in place via basket.Resettable,
// so steady-state enqueue/dequeue allocate nothing and the queue stops
// leaning on the garbage collector under sustained load. The basket
// (default or WithBasket) must implement basket.Resettable; New panics
// otherwise. The trade is one guard acquire/announce per operation.
func WithNodePool() Option {
	return func(o *options) { o.pooled = true }
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

// WithBasket overrides the basket constructor (the default is the scalable
// basket sized to the enqueuer count, wired to the queue's recorder). The
// basket must satisfy the §5.3.2 property: once indicated empty, every
// future Extract fails. A nil constructor keeps the default.
func WithBasket[T any](mk func() basket.Basket[T]) Option {
	return func(o *options) {
		if mk == nil {
			o.newBasket = nil
			return
		}
		o.newBasket = mk
	}
}

// WithRecorder attaches a telemetry recorder (see repro/internal/obs): the
// queue reports operation counts, try_append CAS attempts and failures, and
// retries; the default basket reports insert/extract outcomes into the same
// recorder. A nil or obs.Nop recorder disables telemetry — the disabled
// path costs one nil check per event site.
func WithRecorder(r obs.Recorder) Option {
	return func(o *options) { o.rec = obs.Normalize(r) }
}

// buildOptions applies opts and resolves the enqueuer count.
func buildOptions[T any](opts []Option) (options, int) {
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
	if o.newBasket != nil {
		if _, ok := o.newBasket.(func() basket.Basket[T]); !ok {
			panic("sbq: WithBasket element type does not match the queue's")
		}
	}
	return o, enqueuers
}
