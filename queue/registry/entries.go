package registry

import (
	"runtime"
	"sync"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/queue"
	"repro/queue/faaq"
	"repro/queue/sbq"
	"repro/queue/sharded"
)

// delayedCASCycles is the linking-CAS delay of the SBQ-DCAS entry: the
// paper's tuned ~270ns (§6.1) at the policies' 2.5 cycles/ns.
const delayedCASCycles = 675

func init() {
	// The three SBQ entries share one linking-CAS path (txcas.GuardedCAS)
	// in three configurations. SBQ-CAS: window 0, a plain CAS.
	Register("SBQ-CAS", sbqEntry())
	// SBQ-DCAS: the §4.1 delayed CAS, a policy fallback after the delay.
	Register("SBQ-DCAS", sbqEntry(func(Config) sbq.Option {
		return sbq.WithTxCAS(txcas.WithPolicy(policy.DelayedCAS{Delay: delayedCASCycles}))
	}))
	// SBQ-TxCAS: contenders watch the link during the speculation window
	// (Config.TxWindow; default the paper's ~270ns §4.1 delay) and abandon
	// doomed CASes as soft aborts instead of issuing them.
	Register("SBQ-TxCAS", sbqEntry(func(cfg Config) sbq.Option {
		if cfg.TxWindow > 0 {
			return sbq.WithTxCAS(txcas.WithWindow(cfg.TxWindow))
		}
		return sbq.WithTxCAS()
	}))
	// The sharded front-ends relax total FIFO to per-producer FIFO (see
	// repro/queue/sharded): conformance suites must read the contract via
	// LookupEntry and skip the linearizability checker.
	RegisterEntry("Sharded-FAA", Entry{
		Ordering: PerProducerFIFO,
		Build: func(cfg Config) Instance {
			q := sharded.New[uint64](shardedOptions(cfg)...)
			return Views(q.Producer, q.Consumer)
		},
	})
	RegisterEntry("Sharded-SBQ", Entry{
		Ordering: PerProducerFIFO,
		Build: func(cfg Config) Instance {
			opts := append(shardedOptions(cfg),
				sharded.WithShardBuilder[uint64](func(shard, perShard int) sharded.Shard[uint64] {
					inst := sbqEntry()(Config{Producers: perShard, Recorder: shardRec(cfg, shard), Pooled: cfg.Pooled})
					return sharded.Shard[uint64]{
						Producer: inst.ProducerView,
						Consumer: inst.ConsumerView,
					}
				}))
			q := sharded.New[uint64](opts...)
			return Views(q.Producer, q.Consumer)
		},
	})
}

// shardedOptions translates a Config into sharded front-end options. The
// default shard count is GOMAXPROCS (the contention-minimizing production
// setting), matching the package's own default.
func shardedOptions(cfg Config) []sharded.Option[uint64] {
	shards := cfg.Shards
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	producers := cfg.Producers
	if producers < 1 {
		producers = 1
	}
	opts := []sharded.Option[uint64]{
		sharded.WithShards[uint64](shards),
		sharded.WithProducers[uint64](producers),
		sharded.WithRecorder[uint64](cfg.Recorder),
	}
	// faaq shards, pooled or not, each wired to its shardRec recorder.
	// Entries with their own WithShardBuilder (Sharded-SBQ) append it after
	// these options, overriding this builder.
	return append(opts, sharded.WithShardBuilder[uint64](func(shard, _ int) sharded.Shard[uint64] {
		fopts := []faaq.Option{faaq.WithRecorder(shardRec(cfg, shard))}
		if cfg.Pooled {
			fopts = append(fopts, faaq.WithNodePool())
		}
		q := queue.AsBatch(faaq.New[uint64](fopts...))
		shared := func(int) queue.BatchQueue[uint64] { return q }
		return sharded.Shard[uint64]{Producer: shared, Consumer: shared}
	}))
}

// shardRec resolves the recorder for one shard of a sharded entry.
func shardRec(cfg Config, shard int) obs.Recorder {
	if cfg.ShardRecorder != nil {
		return cfg.ShardRecorder(shard)
	}
	return cfg.Recorder
}

// sbqEntry builds an SBQ instance: producer views are lazily-issued handles
// (one basket cell each), the consumer view wraps the queue's dequeue side.
// extra options receive the build Config.
func sbqEntry(extra ...func(cfg Config) sbq.Option) Builder {
	return func(cfg Config) Instance {
		producers := cfg.Producers
		if producers < 1 {
			producers = 1
		}
		opts := []sbq.Option{
			sbq.WithEnqueuers(producers),
			sbq.WithRecorder(cfg.Recorder),
		}
		if cfg.Pooled {
			opts = append(opts, sbq.WithNodePool())
		}
		for _, e := range extra {
			opts = append(opts, e(cfg))
		}
		return sbqInstance(sbq.New[uint64](opts...))
	}
}

func sbqInstance(q *sbq.Queue[uint64]) Instance {
	var hmu sync.Mutex
	handles := map[int]queue.BatchQueue[uint64]{}
	return Views(
		func(i int) queue.BatchQueue[uint64] {
			hmu.Lock()
			defer hmu.Unlock()
			if h, ok := handles[i]; ok {
				return h
			}
			h := q.NewHandle()
			handles[i] = h
			return h
		},
		func(int) queue.BatchQueue[uint64] { return sbqConsumer{q} },
	)
}

// sbqConsumer adapts the dequeue side of an SBQ to queue.BatchQueue: the
// dequeue half is native (including the one-advance-per-batch DequeueBatch),
// the enqueue half panics because SBQ enqueues need a Handle.
type sbqConsumer struct{ q *sbq.Queue[uint64] }

func (c sbqConsumer) Enqueue(uint64) { panic("registry: SBQ consumer view cannot enqueue") }
func (c sbqConsumer) EnqueueBatch([]uint64) {
	panic("registry: SBQ consumer view cannot enqueue")
}
func (c sbqConsumer) Dequeue() (uint64, bool)       { return c.q.Dequeue() }
func (c sbqConsumer) DequeueBatch(dst []uint64) int { return c.q.DequeueBatch(dst) }
