package sharded

import (
	"runtime"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/faaq"
)

// Option configures a Queue built with New. Unlike repro/queue/sbq's
// type-free options, Option is generic: the shard builder needs the
// element type, and the front-end is constructed far from hot paths
// where the extra type argument in call sites is harmless.
type Option[T any] func(*options[T])

type options[T any] struct {
	shards    int
	producers int
	rec       obs.Recorder
	build     func(shard, producersPerShard int) Shard[T]
	// perShard is derived, not set by options.
	perShard int
}

// WithShards sets the shard count. The default is GOMAXPROCS — one
// shard per potentially parallel producer, the contention-minimizing
// production setting. Non-positive values panic in New.
func WithShards[T any](n int) Option[T] {
	return func(o *options[T]) { o.shards = n }
}

// WithProducers sets the total number of producer views the caller will
// request across all shards (default GOMAXPROCS). Each shard builder is
// told its slice of them, ceil(producers/shards), so sub-queues with
// per-producer state (SBQ baskets) size correctly.
func WithProducers[T any](n int) Option[T] {
	return func(o *options[T]) { o.producers = n }
}

// WithShardBuilder overrides how each shard's sub-queue is built. The
// builder receives the shard index and the number of per-shard producer
// views that will be requested of it. The default builds one faaq queue
// per shard, wired to the front-end's recorder.
func WithShardBuilder[T any](b func(shard, producersPerShard int) Shard[T]) Option[T] {
	return func(o *options[T]) { o.build = b }
}

// WithRecorder attaches a telemetry recorder (see repro/internal/obs).
// The front-end itself reports only deq_steals — per-element counters
// come from the shards, so default shards share this recorder and a
// custom WithShardBuilder decides its own wiring (sharing one recorder
// across shards keeps EnqOps/DeqOps meaning what they mean unsharded).
func WithRecorder[T any](r obs.Recorder) Option[T] {
	return func(o *options[T]) { o.rec = obs.Normalize(r) }
}

func buildOptions[T any](opts []Option[T]) options[T] {
	var o options[T]
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards == 0 {
		o.shards = runtime.GOMAXPROCS(0)
	}
	if o.shards <= 0 {
		panic("sharded: shard count must be positive")
	}
	if o.producers == 0 {
		o.producers = runtime.GOMAXPROCS(0)
	}
	if o.producers <= 0 {
		panic("sharded: producer count must be positive")
	}
	o.perShard = (o.producers + o.shards - 1) / o.shards
	if o.build == nil {
		rec := o.rec
		o.build = func(int, int) Shard[T] {
			q := faaq.New[T](faaq.WithRecorder(rec))
			shared := func(int) queue.BatchQueue[T] { return q }
			return Shard[T]{Producer: shared, Consumer: shared}
		}
	}
	return o
}
