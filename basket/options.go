package basket

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
)

// basketIDs issues process-unique basket identities for the lifecycle
// timeline (EvBasketOpen/EvBasketClose pair on the same id).
var basketIDs atomic.Uint64

// Option configures a basket built with New. Options are value-free of the
// element type, so call sites read naturally:
//
//	b := basket.New[string](basket.WithCapacity(8), basket.WithPartitions(2))
type Option func(*options)

type options struct {
	capacity   int
	bound      int
	partitions int
	rec        obs.Recorder
}

// WithCapacity sets the number of inserter cells. The paper's evaluation
// fixes it at the machine's thread count; the default is GOMAXPROCS.
func WithCapacity(n int) Option { return func(o *options) { o.capacity = n } }

// WithBound restricts extraction to the first n cells (the live-enqueuer
// count of paper §6.1). It defaults to the capacity.
func WithBound(n int) Option { return func(o *options) { o.bound = n } }

// WithPartitions splits extraction across k counters (the §8 future-work
// extension). k <= 1 selects the paper's single-counter scalable basket;
// larger k is clamped to the bound.
func WithPartitions(k int) Option { return func(o *options) { o.partitions = k } }

// WithRecorder attaches a telemetry recorder: the basket reports insert and
// extract outcomes (obs.BasketInserts, obs.BasketInsertFails,
// obs.BasketExtracts, obs.BasketExtractFails). A nil or obs.Nop recorder
// disables recording at the cost of a single nil check per operation.
func WithRecorder(r obs.Recorder) Option { return func(o *options) { o.rec = obs.Normalize(r) } }

// New builds a basket from options: the scalable basket of Algorithms 8-9
// by default, or its partitioned-extraction extension when WithPartitions
// selects more than one partition.
func New[T any](opts ...Option) Basket[T] {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.capacity == 0 {
		o.capacity = runtime.GOMAXPROCS(0)
	}
	if o.capacity <= 0 {
		panic("basket: capacity must be positive")
	}
	if o.bound <= 0 || o.bound > o.capacity {
		o.bound = o.capacity
	}
	ev := obs.Events(o.rec)
	var id uint64
	if ev != nil {
		id = basketIDs.Add(1)
		ev.Event(obs.EvBasketOpen, obs.LaneDefault, id)
	}
	if o.partitions > 1 {
		b := newPartitioned[T](o.capacity, o.bound, o.partitions)
		b.rec = o.rec
		b.ev, b.id = ev, id
		return b
	}
	b := newScalable[T](o.capacity, o.bound)
	b.rec = o.rec
	b.ev, b.id = ev, id
	return b
}
