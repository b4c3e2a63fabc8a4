// Package registry names the repository's native queue configurations and
// builds them uniformly, so benchmarks, tools, and conformance tests share
// one queue-selection table instead of each keeping its own switch.
//
// There are five entries. SBQ-CAS, SBQ-DCAS and SBQ-TxCAS are the
// scalable baskets queue (repro/queue/sbq) with its linking CAS run plain,
// delayed, or speculating (repro/internal/txcas). Sharded-FAA and
// Sharded-SBQ are the sharded front-end (repro/queue/sharded) over
// repro/queue/faaq or SBQ shards. The paper's baselines of Figures 5-7
// (MS-Queue, the original baskets queue, the FAA queue, LCRQ, CC-Queue)
// live on the simulated track only (repro/internal/simqueue).
//
// Entries are uint64-element queues (the element type every harness in this
// repository drives). Each builder receives a Config — producer count,
// shard count, and an optional telemetry recorder — and returns an Instance
// handing out per-producer and per-consumer views: an SBQ producer view
// is its own handle (one basket cell), a sharded producer view enqueues on
// its home shard. Views are batch-capable (queue.BatchQueue), and every
// entry batches natively: one linking CAS appends an SBQ batch, one FAA
// claims a faaq shard's.
//
// Entries also declare their ordering contract: the single-queue entries
// are TotalFIFO (linearizable against a sequential FIFO spec), while the
// sharded front-ends relax to PerProducerFIFO. Conformance suites read the
// contract through LookupEntry and pick the matching checker.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/queue"
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
	// (see repro/internal/obs).
	Recorder obs.Recorder
	// ShardRecorder, when non-nil, supplies the recorder for shard i of a
	// sharded entry, so callers can aggregate queue telemetry per shard
	// (the /metrics exporter labels each shard's CAS-failure and retry
	// counters with it). Returning obs.Tee(shardStats, cfg.Recorder)-style
	// recorders gives both scopes. Unsharded entries ignore it; sharded
	// entries fall back to Recorder when it is nil. The sharded front-end's
	// own counters (steals, steal misses) always go to Recorder — they are
	// a property of the front-end, not of any one shard.
	ShardRecorder func(shard int) obs.Recorder
	// Pooled selects pooled-node mode (each implementation's WithNodePool
	// option): nodes recycle through reclaim-backed freelists with
	// epoch-deferred reuse instead of leaning on the garbage collector,
	// and steady-state operations allocate nothing — the configuration
	// queuetest's CheckAllocFree gates enforce registry-wide.
	Pooled bool
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
// unless the entry documents otherwise. Construct one with Views.
type Instance struct {
	producer func(i int) queue.BatchQueue[uint64]
	consumer func(i int) queue.BatchQueue[uint64]
}

// Views builds an Instance from per-role view constructors.
func Views(producer, consumer func(i int) queue.BatchQueue[uint64]) Instance {
	return Instance{producer: producer, consumer: consumer}
}

// ProducerView returns the batch-capable view for producer i.
func (in Instance) ProducerView(i int) queue.BatchQueue[uint64] { return in.producer(i) }

// ConsumerView returns the batch-capable view for consumer i.
func (in Instance) ConsumerView(i int) queue.BatchQueue[uint64] { return in.consumer(i) }

// Builder constructs a queue for one registry entry.
type Builder func(cfg Config) Instance

// Entry is one registered implementation: how to build it and what
// ordering contract the built queue honors.
type Entry struct {
	Build    Builder
	Ordering Ordering
}

var (
	mu      sync.RWMutex
	entries = map[string]Entry{}
)

// RegisterEntry adds a named entry. Registering a duplicate name panics:
// the registry is assembled from package init functions where a collision
// is a programming error. A nil Build also panics.
func RegisterEntry(name string, e Entry) {
	if e.Build == nil {
		panic("registry: entry " + name + " has no builder")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := entries[name]; dup {
		panic("registry: duplicate queue name " + name)
	}
	entries[name] = e
}

// Register adds a named builder with the default TotalFIFO contract.
func Register(name string, b Builder) {
	RegisterEntry(name, Entry{Build: b})
}

// Names returns the registered names, sorted for stable iteration order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupEntry returns the full entry for name.
func LookupEntry(name string) (Entry, bool) {
	mu.RLock()
	defer mu.RUnlock()
	e, ok := entries[name]
	return e, ok
}

// Lookup returns the builder for name.
func Lookup(name string) (Builder, bool) {
	e, ok := LookupEntry(name)
	return e.Build, ok
}

// Build constructs the named queue, erroring on unknown names (with the
// known names in the message, since the caller is usually a CLI flag) and
// on invalid configurations (see Config.Validate).
func Build(name string, cfg Config) (Instance, error) {
	if err := cfg.Validate(); err != nil {
		return Instance{}, err
	}
	b, ok := Lookup(name)
	if !ok {
		return Instance{}, fmt.Errorf("registry: unknown queue %q (have %v)", name, Names())
	}
	return b(cfg), nil
}
