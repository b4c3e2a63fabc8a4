package basket

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
)

// basketIDs issues process-unique basket identities for the lifecycle
// timeline (EvBasketOpen/EvBasketClose pair on the same id).
var basketIDs atomic.Uint64

// Option configures the baskets built by New or Maker. Options are
// value-free of the element type, so call sites read naturally:
//
//	b := basket.New[string](basket.WithCapacity(8), basket.WithPartitions(2))
type Option func(*options)

type options struct {
	capacity   int
	bound      int
	partitions int
	rec        obs.Recorder
}

// settings is what every basket built by one Maker shares. It is resolved
// once and never written afterwards, so baskets point at it instead of
// carrying a copy each.
type settings struct {
	bound int          // extraction scans cells[0:bound] (the active inserters)
	rec   obs.Recorder // nil unless telemetry is attached (WithRecorder)
	// ev carries the baskets' lifecycle timeline: open at construction,
	// close when the empty bit is set (nil unless rec is a flight-recorder
	// collector).
	ev obs.EventRecorder
}

// open issues a basket id and records its EvBasketOpen, if a flight
// recorder is attached; the id is 0 otherwise.
func (s *settings) open() uint64 {
	if s.ev == nil {
		return 0
	}
	id := basketIDs.Add(1)
	s.ev.Event(obs.EvBasketOpen, obs.LaneDefault, id)
	return id
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
func New[T any](opts ...Option) Basket[T] { return Maker[T](opts...)(nil) }

// Maker applies and validates opts once and returns a constructor for
// baskets that share the resulting settings: a queue resolves its options
// per queue, not per node. The constructor builds the scalable basket in
// own when own is non-nil, so a caller can embed the basket in its own
// allocation, and in a fresh allocation otherwise; the partitioned basket
// ignores own.
func Maker[T any](opts ...Option) func(own *Scalable[T]) Basket[T] {
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
	s := &settings{bound: o.bound, rec: o.rec, ev: obs.Events(o.rec)}
	capacity, k := o.capacity, min(o.partitions, o.bound)
	if k > 1 {
		return func(*Scalable[T]) Basket[T] { return newPartitioned[T](capacity, k, s) }
	}
	return func(own *Scalable[T]) Basket[T] {
		if own == nil {
			own = new(Scalable[T])
		}
		own.cells, own.set, own.id = make([]scell[T], capacity), s, s.open()
		return own
	}
}
