// Package registry names the repository's native queue configurations and
// builds them uniformly, so benchmarks, tools, conformance tests and sbqd
// share one queue-selection table instead of each keeping its own switch.
//
// There are five entries, in one fixed table. SBQ-CAS, SBQ-DCAS and
// SBQ-TxCAS are the scalable baskets queue (repro/queue/sbq) with its
// linking CAS run plain, delayed, or speculating (repro/internal/txcas).
// Sharded-FAA and Sharded-SBQ are the sharded front-end
// (repro/queue/sharded) over repro/queue/faaq or SBQ shards. The paper's
// baselines of Figures 5-7 (MS-Queue, the original baskets queue, the FAA
// queue, LCRQ, CC-Queue) live on the simulated track only
// (repro/internal/simqueue).
//
// Every entry builds at any element type: BuildOf[T] carries the element
// itself, the way the paper's baskets hand a losing enqueuer's element
// over. Build is its uint64 instantiation, the element type the harnesses
// and benchmarks drive; sbqd builds its tenant queues at its job record.
// Each build receives a Config — producer count, shard count, and an
// optional telemetry recorder — and returns an Instance handing out
// per-producer and per-consumer views: an SBQ producer view is its own
// handle (one basket cell), a sharded producer view enqueues on its home
// shard. Views are batch-capable (queue.BatchQueue), and every entry
// batches natively: one linking CAS appends an SBQ batch, one FAA claims a
// faaq shard's.
//
// Entries also declare their ordering contract: the single-queue entries
// are TotalFIFO (linearizable against a sequential FIFO spec), while the
// sharded front-ends relax to PerProducerFIFO. Conformance suites read the
// contract through OrderingOf and pick the matching checker.
package registry

import (
	"fmt"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/queue"
	"repro/queue/sbq"
)

// Config parameterizes a build.
type Config struct {
	// Producers is the number of distinct producer views the caller will
	// request (SBQ sizes baskets from it; sharded entries derive per-shard
	// producer counts from it). Zero means one.
	Producers int
	// Shards is the shard count for entries that compose a sharded
	// front-end (see repro/queue/sharded). Zero lets the entry pick its
	// default (GOMAXPROCS); unsharded entries ignore it.
	Shards int
	// Recorder, when non-nil, is threaded into the queue's telemetry hooks
	// (see repro/internal/obs), and so is its flight recorder when it
	// carries one (obs.NewWithEvents).
	Recorder *obs.Stats
	// ShardRecorder, when non-nil, supplies the recorder for shard i of a
	// sharded entry, so callers can aggregate queue telemetry per shard
	// (the /metrics exporter labels each shard's CAS-failure and retry
	// counters with it). Returning child scopes of Recorder (Stats.Scope)
	// gives both scopes, each event recorded once: the Recorder's Snapshot
	// sums its shards. Unsharded entries ignore it; sharded
	// entries fall back to Recorder when it is nil. The sharded front-end's
	// own counters (steals, steal misses) always go to Recorder — they are
	// a property of the front-end, not of any one shard.
	ShardRecorder func(shard int) *obs.Stats
	// TxWindow overrides the speculation window of TxCAS-mode entries
	// (SBQ-TxCAS): how long a contending enqueuer watches the link it is
	// about to CAS before issuing the CAS (see repro/internal/txcas).
	// Zero selects the engine default (the paper's ~270ns §4.1 delay);
	// other entries ignore it. sbqbench threads its
	// -txcas sweep dimension through this field.
	TxWindow time.Duration
}

// Validate reports whether the configuration is buildable. Zero values are
// always valid — they select the documented defaults (one producer, the
// entry's shard default, the engine's window) — but negative counts used to
// fall through to unhelpful panics deep inside the constructors (e.g.
// repro/queue/sharded's "shard count must be positive"), far from the
// caller that produced them. Build rejects such configs up front with this
// error instead.
func (cfg Config) Validate() error {
	if cfg.Producers < 0 {
		return fmt.Errorf("registry: Producers must be >= 0 (0 selects the default of one), got %d", cfg.Producers)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("registry: Shards must be >= 0 (0 selects the entry's default), got %d", cfg.Shards)
	}
	if cfg.TxWindow < 0 {
		return fmt.Errorf("registry: TxWindow must be >= 0 (0 selects the engine default), got %v", cfg.TxWindow)
	}
	return nil
}

// Ordering is the dequeue-order contract a registry entry guarantees.
type Ordering int

const (
	// TotalFIFO entries are linearizable against the sequential FIFO
	// spec: all the single-queue entries.
	TotalFIFO Ordering = iota
	// PerProducerFIFO entries preserve each producer's enqueue order but
	// may interleave different producers arbitrarily — even when their
	// enqueues did not overlap. The sharded front-ends live here.
	PerProducerFIFO
)

// String returns the contract's conventional name.
func (o Ordering) String() string {
	switch o {
	case TotalFIFO:
		return "total-fifo"
	case PerProducerFIFO:
		return "per-producer-fifo"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Instance is a built queue exposed as per-role views. ProducerView(i) must
// be called with 0 <= i < Config.Producers and each returned view used by
// at most one goroutine at a time; ConsumerView views are safe to share
// unless the entry documents otherwise.
type Instance[T any] struct {
	producer func(i int) queue.BatchQueue[T]
	consumer func(i int) queue.BatchQueue[T]
}

// ProducerView returns the batch-capable view for producer i.
func (in Instance[T]) ProducerView(i int) queue.BatchQueue[T] { return in.producer(i) }

// ConsumerView returns the batch-capable view for consumer i.
func (in Instance[T]) ConsumerView(i int) queue.BatchQueue[T] { return in.consumer(i) }

// entry is one row of the registry: a name, the ordering contract of what
// it builds, and what that is — one SBQ, or the sharded front-end over SBQ
// or faaq shards.
type entry struct {
	name     string
	ordering Ordering
	sharded  bool
	// linking returns the options that configure the linking CAS of the
	// entry's SBQ, or of each of its SBQ shards. A sharded entry without it
	// has faaq shards.
	linking func(cfg Config) []sbq.Option
}

// delayedCASCycles is the linking-CAS delay of the SBQ-DCAS entry: the
// paper's tuned ~270ns (§6.1) at the policies' 2.5 cycles/ns.
const delayedCASCycles = 675

// entries is the registry, sorted by name.
var entries = [...]entry{
	// The three SBQ entries share one linking-CAS path (txcas.GuardedCAS)
	// in three configurations. SBQ-CAS: window 0, a plain CAS.
	{name: "SBQ-CAS", linking: plainCAS},
	// SBQ-DCAS: the §4.1 delayed CAS, a policy fallback after the delay.
	{name: "SBQ-DCAS", linking: func(Config) []sbq.Option {
		return []sbq.Option{sbq.WithTxCAS(txcas.WithPolicy(policy.DelayedCAS{Delay: delayedCASCycles}))}
	}},
	// SBQ-TxCAS: contenders watch the link during the speculation window
	// (Config.TxWindow; default the paper's ~270ns §4.1 delay) and abandon
	// doomed CASes as soft aborts instead of issuing them.
	{name: "SBQ-TxCAS", linking: func(cfg Config) []sbq.Option {
		if cfg.TxWindow > 0 {
			return []sbq.Option{sbq.WithTxCAS(txcas.WithWindow(cfg.TxWindow))}
		}
		return []sbq.Option{sbq.WithTxCAS()}
	}},
	// The sharded front-ends relax total FIFO to per-producer FIFO (see
	// repro/queue/sharded): conformance suites must read the contract via
	// OrderingOf and skip the linearizability checker.
	{name: "Sharded-FAA", ordering: PerProducerFIFO, sharded: true},
	{name: "Sharded-SBQ", ordering: PerProducerFIFO, sharded: true, linking: plainCAS},
}

func plainCAS(Config) []sbq.Option { return nil }

func find(name string) *entry {
	for i := range entries {
		if entries[i].name == name {
			return &entries[i]
		}
	}
	return nil
}

// Names returns the entry names, sorted.
func Names() []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	return names
}

// OrderingOf returns the ordering contract of the named entry; ok is false
// when no entry has that name.
func OrderingOf(name string) (o Ordering, ok bool) {
	if e := find(name); e != nil {
		return e.ordering, true
	}
	return 0, false
}

// BuildOf constructs the named queue with element type T, erroring on
// unknown names (with the known names in the message, since the caller is
// usually a CLI flag) and on invalid configurations (see Config.Validate).
func BuildOf[T any](name string, cfg Config) (Instance[T], error) {
	if err := cfg.Validate(); err != nil {
		return Instance[T]{}, err
	}
	e := find(name)
	if e == nil {
		return Instance[T]{}, fmt.Errorf("registry: unknown queue %q (have %v)", name, Names())
	}
	if !e.sharded {
		return newSBQ[T](cfg, e.linking(cfg)), nil
	}
	return newSharded[T](cfg, e.linking), nil
}

// Build is BuildOf at uint64, the element type the harnesses, benchmarks
// and conformance suites drive.
func Build(name string, cfg Config) (Instance[uint64], error) {
	return BuildOf[uint64](name, cfg)
}
