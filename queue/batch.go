package queue

// This file is the batch extension of the queue API. The paper's basket
// *is* a batch — §5 groups concurrently failed CASs into one basket,
// amortizing the serialized FAA/CAS handoff over k elements — and the
// batch interfaces below let callers hand the queue that grouping
// explicitly instead of reconstructing it from contention.
//
// # Migration notes
//
// The batch surface is additive. Existing Queue[T] implementations and
// call sites keep working unchanged:
//
//   - New code that wants batch operations asks for a BatchQueue[T] and
//     upgrades any Queue[T] with AsBatch, which is the identity on queues
//     that already implement the batch methods natively (faaq, sbq
//     handles, the sharded front-end) and a loop otherwise.
//   - Implementations add batch support by implementing BatchEnqueuer[T]
//     and/or BatchDequeuer[T]; AsBatch picks up each capability
//     independently, so a queue can provide a native batch enqueue while
//     inheriting the looped dequeue (or vice versa).
//   - repro/queue/registry hands out batch-capable views from every
//     entry through Instance.ProducerView/ConsumerView.

// BatchEnqueuer is the enqueue half of the batch capability: append all
// of vs in one operation, preserving slice order (vs[0] is dequeued
// before vs[1]). An empty batch is a no-op. Implementations must not
// retain or modify vs after returning.
type BatchEnqueuer[T any] interface {
	EnqueueBatch(vs []T)
}

// BatchDequeuer is the dequeue half of the batch capability: fill a
// prefix of dst in queue order and return how many elements were
// written. A return of 0 means the queue appeared empty (or dst was
// empty); a short count is not an emptiness guarantee — like a false
// Dequeue it only means no more elements were observed at that moment.
type BatchDequeuer[T any] interface {
	DequeueBatch(dst []T) int
}

// BatchQueue is a queue with first-class batch operations on both sides.
// Hot implementations amortize one contended atomic over the whole
// batch: one FAA claims k cells in faaq, one linking CAS appends a
// k-node chain in sbq.
type BatchQueue[T any] interface {
	Queue[T]
	BatchEnqueuer[T]
	BatchDequeuer[T]
}

// AsBatch upgrades q to a BatchQueue. Queues that already implement the
// full batch surface are returned as-is; otherwise the result delegates
// each batch method to the native implementation when q provides that
// capability and to an element-at-a-time loop when it does not. Single
// Enqueue/Dequeue always delegate to q directly, so an AsBatch-wrapped
// view can be used anywhere the plain view was.
//
// AsBatch panics on a nil queue: wrapping nil would defer the failure
// to the first operation, far from the construction-site bug.
func AsBatch[T any](q Queue[T]) BatchQueue[T] {
	if q == nil {
		panic("queue: AsBatch requires a non-nil queue")
	}
	if b, ok := q.(BatchQueue[T]); ok {
		return b
	}
	return batched[T]{q}
}

// batched adapts a Queue to BatchQueue, preferring native capabilities.
type batched[T any] struct {
	Queue[T]
}

// EnqueueBatch implements BatchEnqueuer.
//
//lf:hotpath
func (b batched[T]) EnqueueBatch(vs []T) {
	if be, ok := b.Queue.(BatchEnqueuer[T]); ok {
		be.EnqueueBatch(vs)
		return
	}
	for _, v := range vs {
		b.Enqueue(v)
	}
}

// DequeueBatch implements BatchDequeuer.
//
//lf:hotpath
func (b batched[T]) DequeueBatch(dst []T) int {
	if bd, ok := b.Queue.(BatchDequeuer[T]); ok {
		return bd.DequeueBatch(dst)
	}
	got := 0
	for got < len(dst) {
		v, ok := b.Dequeue()
		if !ok {
			break
		}
		dst[got] = v
		got++
	}
	return got
}
