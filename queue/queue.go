// Package queue defines the multi-producer/multi-consumer FIFO queue
// interface shared by this repository's native Go queues:
//
//   - repro/queue/sbq: the scalable baskets queue (the paper's SBQ) with
//     pluggable baskets and one linking-CAS path in three configurations
//   - repro/queue/faaq: an FAA-based infinite-array queue (the fast path
//     of Yang & Mellor-Crummey's wait-free queue), the shards of the
//     sharded front-end
//   - repro/queue/sharded: a production front-end that composes several
//     queues (faaq by default) with per-producer shard affinity and
//     work-stealing dequeue
//
// These are the paper's algorithms on real Go atomics. Go exposes no
// hardware transactional memory, so the native SBQ's TxCAS is a software
// approximation (repro/internal/txcas); the HTM-backed TxCAS and the
// paper's baseline queues (MS-Queue, the original baskets queue, the FAA
// queue, LCRQ, CC-Queue) run on the simulated track only (see DESIGN.md).
// Memory reclamation is left to the Go garbage collector by default;
// pooled-node mode recycles nodes through repro/reclaim's epoch scheme.
//
// Beyond the single-element Queue interface, batch.go defines the
// optional batch capability (BatchEnqueuer, BatchDequeuer, BatchQueue)
// and the AsBatch adapter that upgrades any Queue to it. See batch.go's
// migration notes.
package queue

// Queue is a linearizable MPMC FIFO queue.
//
// Implementations with per-thread state (notably SBQ) hand out one Queue
// view per goroutine; see each package's constructor.
type Queue[T any] interface {
	// Enqueue appends v to the queue.
	Enqueue(v T)
	// Dequeue removes and returns the oldest element, or ok=false if the
	// queue appeared empty.
	Dequeue() (v T, ok bool)
}
