// Package queue defines the multi-producer/multi-consumer FIFO queue
// interface shared by this repository's native Go queues:
//
//   - repro/queue/sbq: the scalable baskets queue (the paper's SBQ), whose
//     nodes embed the scalable basket, with one linking-CAS path in three
//     configurations
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
// Memory reclamation is left to the Go garbage collector; the paper's
// epoch scheme (Algorithm 7) runs on the simulated track.
//
// Every queue here also implements BatchQueue, the batch operations.
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

// BatchQueue is a queue with first-class batch operations on both sides.
// The paper's basket *is* a batch: §5 groups concurrently failed CASs
// into one basket, amortizing the serialized handoff over k elements. The
// batch methods let callers hand the queue that grouping explicitly
// instead of reconstructing it from contention: one FAA claims k cells in
// faaq, one linking CAS appends a k-node chain in sbq. faaq queues, SBQ
// handles, the sharded views and every registry view implement it.
type BatchQueue[T any] interface {
	Queue[T]
	// EnqueueBatch appends all of vs in one operation, preserving slice
	// order (vs[0] is dequeued before vs[1]). An empty batch is a no-op.
	// Implementations must not retain or modify vs after returning.
	EnqueueBatch(vs []T)
	// DequeueBatch fills a prefix of dst in queue order and returns how
	// many elements were written. A return of 0 means the queue appeared
	// empty (or dst was empty); a short count is not an emptiness
	// guarantee: like a false Dequeue it only means no more elements were
	// observed at that moment.
	DequeueBatch(dst []T) int
}
