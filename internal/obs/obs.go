// Package obs is the repository's observability layer: near-zero-overhead
// telemetry counters and coarse latency histograms shared by the native
// queues (repro/queue/*), the baskets (repro/basket), and the simulated
// track (repro/internal/machine, repro/internal/simqueue).
//
// The paper's whole argument is about which atomic operations fail and what
// that failure costs (§3, §6.1): CAS failure rates, basket occupancy, and
// HTM abort-code mixes are exactly the signals every performance change in
// this repository must be steered by. This package makes them first-class:
//
//   - Counter enumerates the event counters (CAS attempts/failures, basket
//     insert/extract outcomes, enqueue/dequeue retries, HTM abort codes,
//     coherence message kinds).
//   - Series enumerates the latency histograms (power-of-two buckets,
//     backed by repro/internal/stats.Histogram).
//   - Recorder is the interface instrumentation points call. Instrumented
//     code holds a nil Recorder when telemetry is off, so the disabled path
//     is a single nil check; Nop is an explicit no-op value for plumbing,
//     normalized to nil by every constructor (see Normalize).
//   - Stats is the concrete lock-free recorder: padded per-handle shards
//     aggregated by Snapshot.
//
// Typical wiring:
//
//	rec := obs.New()
//	q := sbq.New[uint64](sbq.WithEnqueuers(8), sbq.WithRecorder(rec))
//	... run workload ...
//	snap := rec.Snapshot()
//	fmt.Println(snap.FormatQueue())
package obs

// Counter identifies one monotonically increasing event counter.
type Counter uint8

// Queue- and basket-level counters.
const (
	// EnqOps and DeqOps count completed queue operations; DeqEmpty counts
	// dequeues that reported an empty queue.
	EnqOps Counter = iota
	DeqOps
	DeqEmpty
	// EnqRetries and DeqRetries count loop iterations beyond the first in
	// an operation (tail chasing, poisoned cells, drained rings, ...).
	EnqRetries
	DeqRetries
	// CASAttempts and CASFailures count the contended linking CAS of the
	// linked queues (try_append in SBQ terms); CASFallbacks counts TxCAS
	// operations resolved by the non-transactional fallback.
	CASAttempts
	CASFailures
	CASFallbacks
	// Basket insert/extract outcomes, recorded by the basket
	// implementations themselves.
	BasketInserts
	BasketInsertFails
	BasketExtracts
	BasketExtractFails

	// HTM counters (simulated track).
	TxStarts
	TxCommits
	TxAborts
	TxAbortsConflict
	TxAbortsExplicit
	TxAbortsNested
	TxAbortsCapacity
	TxAbortsSpurious
	TxTrippedWriters
	TxFixStalls

	// Coherence message counters (simulated track), one per protocol
	// message kind. CohGetS..CohDownAck must stay contiguous and in the
	// machine's MsgKind order.
	CohGetS
	CohGetM
	CohFwdGetS
	CohFwdGetM
	CohInv
	CohInvAck
	CohData
	CohDownAck

	// Fault-injection counters (simulated track). TxAbortsDisabled counts
	// transactions refused at _xbegin because HTM is disabled;
	// FaultsInjected counts injector-produced faults of any kind;
	// FaultHopJitter counts cross-socket hops that drew a nonzero jitter
	// penalty. Appended after the Coh block so CohGetS..CohDownAck keeps
	// its required contiguity.
	TxAbortsDisabled
	FaultsInjected
	FaultHopJitter

	// Batch and sharding counters (native track). EnqBatches/DeqBatches
	// count batch operations (EnqOps/DeqOps still count elements, so
	// ops/batches is the realized amortization factor k); DeqSteals
	// counts dequeues a sharded front-end satisfied from a non-home
	// shard.
	EnqBatches
	DeqBatches
	DeqSteals

	// DeqStealMisses counts full steal sweeps that found every shard
	// empty — the consumer-backoff trigger in repro/queue/sharded: after
	// enough consecutive misses a consumer spins (calibrated, no clock
	// reads) before its next round-robin sweep instead of thrashing the
	// shard heads.
	DeqStealMisses

	// Job-queue service counters (repro/service). SrvSubmits counts
	// accepted submissions; SrvLeases counts jobs handed to workers
	// (deliveries — SrvLeases/SrvSubmits > 1 means redelivery happened);
	// SrvRedeliveries counts deliveries beyond a job's first; SrvAcks and
	// SrvNacks count worker completions and explicit rejections;
	// SrvExpired counts leases the deadline scanner reclaimed; SrvDLQ
	// counts jobs routed to a dead-letter queue after exhausting their
	// retry budget; SrvRejects counts submissions refused by the
	// backpressure quota or the drain fence.
	SrvSubmits
	SrvLeases
	SrvRedeliveries
	SrvAcks
	SrvNacks
	SrvExpired
	SrvDLQ
	SrvRejects

	// Native software-TxCAS counters (repro/internal/txcas). TxSoftAborts
	// counts speculative attempts abandoned before issuing their CAS
	// because a competing winner filled the watched link first — the
	// native analogue of a read-step HTM abort: the doomed atomic never
	// reaches the line. TxSharerHints counts failures that identified the
	// winning thread, the paper's "failures identify sharers" signal (§3)
	// reproduced on real cores.
	TxSoftAborts
	TxSharerHints

	// NumCounters bounds the Counter enum; it is not a counter.
	NumCounters
)

var counterNames = [NumCounters]string{
	EnqOps:             "enq_ops",
	DeqOps:             "deq_ops",
	DeqEmpty:           "deq_empty",
	EnqRetries:         "enq_retries",
	DeqRetries:         "deq_retries",
	CASAttempts:        "cas_attempts",
	CASFailures:        "cas_failures",
	CASFallbacks:       "cas_fallbacks",
	BasketInserts:      "basket_inserts",
	BasketInsertFails:  "basket_insert_fails",
	BasketExtracts:     "basket_extracts",
	BasketExtractFails: "basket_extract_fails",
	TxStarts:           "tx_starts",
	TxCommits:          "tx_commits",
	TxAborts:           "tx_aborts",
	TxAbortsConflict:   "tx_aborts_conflict",
	TxAbortsExplicit:   "tx_aborts_explicit",
	TxAbortsNested:     "tx_aborts_nested",
	TxAbortsCapacity:   "tx_aborts_capacity",
	TxAbortsSpurious:   "tx_aborts_spurious",
	TxTrippedWriters:   "tx_tripped_writers",
	TxFixStalls:        "tx_fix_stalls",
	CohGetS:            "coh_gets",
	CohGetM:            "coh_getm",
	CohFwdGetS:         "coh_fwd_gets",
	CohFwdGetM:         "coh_fwd_getm",
	CohInv:             "coh_inv",
	CohInvAck:          "coh_inv_ack",
	CohData:            "coh_data",
	CohDownAck:         "coh_down_ack",
	TxAbortsDisabled:   "tx_aborts_disabled",
	FaultsInjected:     "faults_injected",
	FaultHopJitter:     "fault_hop_jitter",
	EnqBatches:         "enq_batches",
	DeqBatches:         "deq_batches",
	DeqSteals:          "deq_steals",
	DeqStealMisses:     "deq_steal_misses",
	SrvSubmits:         "srv_submits",
	SrvLeases:          "srv_leases",
	SrvRedeliveries:    "srv_redeliveries",
	SrvAcks:            "srv_acks",
	SrvNacks:           "srv_nacks",
	SrvExpired:         "srv_expired",
	SrvDLQ:             "srv_dlq",
	SrvRejects:         "srv_rejects",
	TxSoftAborts:       "tx_soft_aborts",
	TxSharerHints:      "tx_sharer_hints",
}

// String returns the counter's snake_case name.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "?"
}

// Series identifies one latency histogram.
type Series uint8

// The latency series. Values are always nanoseconds — wall-clock on the
// native track, simulated nanoseconds on the simulated track.
const (
	EnqLatency Series = iota
	DeqLatency

	// Service delivery latencies (repro/service): LeaseLatency is
	// submit-to-first-delivery, AckLatency is submit-to-successful-ack.
	// These are the tail-latency series the chaos harness reports p99/p999
	// from.
	LeaseLatency
	AckLatency

	// NumSeries bounds the Series enum; it is not a series.
	NumSeries
)

var seriesNames = [NumSeries]string{
	EnqLatency:   "enq_ns",
	DeqLatency:   "deq_ns",
	LeaseLatency: "lease_ns",
	AckLatency:   "ack_ns",
}

// String returns the series' snake_case name.
func (s Series) String() string {
	if s < NumSeries {
		return seriesNames[s]
	}
	return "?"
}

// Recorder receives telemetry events. Implementations must be safe for
// concurrent use. Instrumented code stores a Recorder field that is nil
// when telemetry is disabled and guards every call with a nil check, so
// the disabled fast path costs one predictable branch.
type Recorder interface {
	// Inc adds one to counter c.
	Inc(c Counter)
	// Add adds delta to counter c.
	Add(c Counter, delta uint64)
	// Observe records a nanosecond value in series s.
	Observe(s Series, ns uint64)
}

// Nop is a Recorder that records nothing. Constructors normalize it to a
// nil Recorder (see Normalize), so passing Nop{} is exactly as cheap as
// passing no recorder at all: the disabled path is a single nil check and
// these methods are never reached from hot paths.
type Nop struct{}

// Inc implements Recorder as a no-op.
func (Nop) Inc(Counter) {}

// Add implements Recorder as a no-op.
func (Nop) Add(Counter, uint64) {}

// Observe implements Recorder as a no-op.
func (Nop) Observe(Series, uint64) {}

// Normalize maps Nop (and nil) to nil so that instrumented code can treat
// "no recorder" uniformly as a nil field. Every constructor accepting a
// Recorder option passes it through Normalize.
func Normalize(r Recorder) Recorder {
	if r == nil {
		return nil
	}
	if _, ok := r.(Nop); ok {
		return nil
	}
	// A typed-nil *Stats arises naturally from `var s *Stats` at call
	// sites; treat it as off rather than letting it defeat nil checks.
	if s, ok := r.(*Stats); ok && s == nil {
		return nil
	}
	return r
}
