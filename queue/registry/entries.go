package registry

import (
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/faaq"
	"repro/queue/sbq"
	"repro/queue/sharded"
)

// newSBQ builds an SBQ instance: producer views are lazily-issued handles
// (one basket cell each), the consumer view wraps the queue's dequeue side.
// linking configures the linking CAS (see entry.linking).
func newSBQ[T any](cfg Config, linking []sbq.Option) Instance[T] {
	opts := []sbq.Option{
		sbq.WithEnqueuers(max(cfg.Producers, 1)),
		sbq.WithRecorder(cfg.Recorder),
	}
	q := sbq.New[T](append(opts, linking...)...)
	var mu sync.Mutex
	handles := map[int]queue.BatchQueue[T]{}
	return Instance[T]{
		producer: func(i int) queue.BatchQueue[T] {
			mu.Lock()
			defer mu.Unlock()
			if h, ok := handles[i]; ok {
				return h
			}
			h := q.NewHandle()
			handles[i] = h
			return h
		},
		consumer: func(int) queue.BatchQueue[T] { return sbqConsumer[T]{q} },
	}
}

// newSharded builds the sharded front-end over SBQ shards configured by
// linking, or over faaq shards when linking is nil. The default shard count
// is GOMAXPROCS (the contention-minimizing production setting). Each shard
// records into its shardRec recorder.
func newSharded[T any](cfg Config, linking func(Config) []sbq.Option) Instance[T] {
	shards := cfg.Shards
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	build := func(shard, _ int) sharded.Shard[T] {
		q := faaq.New[T](faaq.WithRecorder(shardRec(cfg, shard)))
		shared := func(int) queue.BatchQueue[T] { return q }
		return sharded.Shard[T]{Producer: shared, Consumer: shared}
	}
	if linking != nil {
		build = func(shard, perShard int) sharded.Shard[T] {
			in := newSBQ[T](Config{Producers: perShard, Recorder: shardRec(cfg, shard)}, linking(cfg))
			return sharded.Shard[T]{Producer: in.producer, Consumer: in.consumer}
		}
	}
	q := sharded.New(shards, max(cfg.Producers, 1), cfg.Recorder, build)
	return Instance[T]{producer: q.Producer, consumer: q.Consumer}
}

// shardRec resolves the recorder for one shard of a sharded entry.
func shardRec(cfg Config, shard int) *obs.Stats {
	if cfg.ShardRecorder != nil {
		return cfg.ShardRecorder(shard)
	}
	return cfg.Recorder
}

// sbqConsumer adapts the dequeue side of an SBQ to queue.BatchQueue: the
// dequeue half is native (including the one-advance-per-batch DequeueBatch),
// the enqueue half panics because SBQ enqueues need a Handle.
type sbqConsumer[T any] struct{ q *sbq.Queue[T] }

func (c sbqConsumer[T]) Enqueue(T) { panic("registry: SBQ consumer view cannot enqueue") }
func (c sbqConsumer[T]) EnqueueBatch([]T) {
	panic("registry: SBQ consumer view cannot enqueue")
}
func (c sbqConsumer[T]) Dequeue() (T, bool)       { return c.q.Dequeue() }
func (c sbqConsumer[T]) DequeueBatch(dst []T) int { return c.q.DequeueBatch(dst) }
