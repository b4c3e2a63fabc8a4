// Package sharded is the production front-end of the repository's queue
// library: it composes N independent sub-queues ("shards") behind one
// batch-capable surface, with per-producer shard affinity on the enqueue
// side and work-stealing on the dequeue side.
//
// BENCH_PR4.json showed the linked queues collapsing 3-5x from 1 to 4
// threads while the FAA queue stayed near-flat: past a few producers the
// single contended word, not the algorithm, is the ceiling. Sharding
// splits that word N ways. Batching (repro/queue's BatchQueue surface)
// then amortizes what contention remains: a producer's EnqueueBatch is
// one sub-queue batch operation — one FAA for a faaq shard, one linking
// CAS for an sbq shard — regardless of k. The combination is the
// paper's §5 insight run forwards: instead of recovering a basket from
// the k CASs that failed, the caller hands the basket in and no CAS
// needs to fail at all.
//
// # Ordering
//
// The front-end deliberately relaxes total FIFO to per-producer FIFO:
// elements of one producer are dequeued in enqueue order (each producer
// is pinned to one shard, and each shard is FIFO), but elements of
// different producers may be reordered even when their enqueues did not
// overlap. Registry entries built on this package declare
// registry.PerProducerFIFO so conformance suites check the right
// contract.
//
// # Views
//
// Like SBQ, the queue hands out per-goroutine views: Producer(i) pins
// producer i to shard i % N (its sub-view may carry per-producer state,
// e.g. an SBQ handle, so it must not be shared); Consumer(i) prefers
// shard i % N and steals from the others round-robin when its home
// shard runs dry. Both views implement queue.BatchQueue.
//
// Consumers that keep finding every shard empty back off between sweeps
// (calibrated spin, no clock reads — see the stealBackoff constants), so
// large consumer counts polling a drained queue stop thrashing the shard
// head lines; obs.DeqStealMisses counts the empty sweeps.
package sharded

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/spin"
	"repro/queue"
)

// Shard is one sub-queue as the front-end consumes it: per-role view
// functions, the same shape repro/queue/registry's Instance hands out.
// Producer(i) is called with per-shard producer indices (0 ..
// producersPerShard-1); Consumer views must be safe to share.
type Shard[T any] struct {
	Producer func(i int) queue.BatchQueue[T]
	Consumer func(i int) queue.BatchQueue[T]
}

// Queue composes N shards. It is not itself a queue.Queue — obtain views
// with Producer and Consumer.
type Queue[T any] struct {
	shards []Shard[T]
	rec    *obs.Stats
}

// New composes shards sub-queues, each built by build(shard,
// producersPerShard). producers is the total number of producer views the
// caller will request across all shards; each builder call is told its
// slice of them, ceil(producers/shards), so sub-queues with per-producer
// state (SBQ baskets) size correctly. rec receives the front-end's own
// counters, deq_steals and deq_steal_misses (nil disables them); per-element
// counters come from the shards, whose recorders build chooses. New panics
// on a non-positive shard or producer count.
func New[T any](shards, producers int, rec *obs.Stats, build func(shard, producersPerShard int) Shard[T]) *Queue[T] {
	if shards <= 0 {
		panic("sharded: shard count must be positive")
	}
	if producers <= 0 {
		panic("sharded: producer count must be positive")
	}
	perShard := (producers + shards - 1) / shards
	q := &Queue[T]{shards: make([]Shard[T], shards), rec: rec}
	for s := range q.shards {
		q.shards[s] = build(s, perShard)
	}
	return q
}

// NumShards returns the shard count.
func (q *Queue[T]) NumShards() int { return len(q.shards) }

// Producer returns the view for producer i, pinned to shard i % N. Each
// returned view must be used by at most one goroutine at a time. The
// view's dequeue side steals like a Consumer view's, so a goroutine that
// both produces and consumes needs only one view.
func (q *Queue[T]) Producer(i int) queue.BatchQueue[T] {
	n := len(q.shards)
	home := i % n
	v := &view[T]{q: q, home: home, cons: q.consViews(i)}
	v.enq = q.shards[home].Producer(i / n)
	return v
}

// Consumer returns the view for consumer i: dequeues drain shard i % N
// first and steal round-robin from the rest. Enqueues on a consumer view
// go to the home shard's consumer view (which may reject them, e.g. SBQ
// consumer views panic), mirroring the underlying entry's contract.
func (q *Queue[T]) Consumer(i int) queue.BatchQueue[T] {
	home := i % len(q.shards)
	cons := q.consViews(i)
	return &view[T]{q: q, home: home, enq: cons[home], cons: cons}
}

// consViews materializes consumer view i of every shard.
func (q *Queue[T]) consViews(i int) []queue.BatchQueue[T] {
	cons := make([]queue.BatchQueue[T], len(q.shards))
	for s := range q.shards {
		cons[s] = q.shards[s].Consumer(i)
	}
	return cons
}

// Steal-backoff tuning. A consumer whose last stealBackoffAfter full
// sweeps (home shard plus every steal target) all came back empty spins a
// calibrated, clock-free window before its next sweep; the window doubles
// per additional miss up to stealBackoffCap iterations (a few microseconds
// on current hardware). Without this, high consumer counts on a drained
// queue thrash every shard's head line in lockstep — the same
// contention-collapse shape the paper measures on the single contended
// word, reproduced across N of them.
const (
	stealBackoffAfter = 2
	stealBackoffBase  = 1 << 6
	stealBackoffCap   = 1 << 12
)

// view is one goroutine's handle on the front-end.
type view[T any] struct {
	q    *Queue[T]
	home int
	enq  queue.BatchQueue[T]   // home-shard enqueue target
	cons []queue.BatchQueue[T] // per-shard dequeue views, indexed by shard
	// misses counts consecutive full sweeps that found every shard empty.
	// Views are documented as single-goroutine, but registry consumer
	// views may be shared, so the counter is atomic; the clamped races are
	// harmless (at worst a slightly longer or shorter backoff window).
	misses atomic.Uint32
}

// stealPause backs off before a steal sweep once stealBackoffAfter
// consecutive sweeps came back empty: pure calibrated spin, no clock
// reads (see repro/internal/spin).
//
//lf:hotpath
func (v *view[T]) stealPause() {
	m := v.misses.Load()
	if m < stealBackoffAfter {
		return
	}
	shift := m - stealBackoffAfter
	w := uint64(stealBackoffBase) << shift
	if shift > 6 || w > stealBackoffCap {
		w = stealBackoffCap
	}
	spin.Iters(w)
}

// miss records one empty full sweep.
//
//lf:hotpath
func (v *view[T]) miss() {
	if v.misses.Load() < 32 { // clamp: the window is capped anyway
		v.misses.Add(1)
	}
	if r := v.q.rec; r != nil {
		r.Inc(obs.DeqStealMisses)
	}
}

// hit resets the backoff after a successful dequeue. The load-then-store
// keeps the common non-backoff path write-free.
//
//lf:hotpath
func (v *view[T]) hit() {
	if v.misses.Load() != 0 {
		v.misses.Store(0)
	}
}

// Enqueue appends v to the home shard.
//
//lf:hotpath
func (v *view[T]) Enqueue(x T) { v.enq.Enqueue(x) }

// EnqueueBatch appends vs to the home shard as one sub-queue batch: the
// whole batch stays on one shard, so intra-batch FIFO order is exactly
// the shard's FIFO order.
//
//lf:hotpath
func (v *view[T]) EnqueueBatch(vs []T) { v.enq.EnqueueBatch(vs) }

// Dequeue drains the home shard, stealing from the other shards
// round-robin when it is dry. ok=false means every shard appeared empty
// during the scan.
//
//lf:hotpath
func (v *view[T]) Dequeue() (T, bool) {
	if x, ok := v.cons[v.home].Dequeue(); ok {
		v.hit()
		return x, true
	}
	v.stealPause()
	n := len(v.cons)
	for d := 1; d < n; d++ {
		if x, ok := v.cons[(v.home+d)%n].Dequeue(); ok {
			if r := v.q.rec; r != nil {
				r.Inc(obs.DeqSteals)
			}
			v.hit()
			return x, true
		}
	}
	v.miss()
	var zero T
	return zero, false
}

// DequeueBatch fills dst from the home shard first, then widens the
// scan shard by shard until dst is full or every shard has been tried.
// Elements stolen from one shard land in dst contiguously, so each
// producer's elements stay in order within the batch.
//
//lf:hotpath
func (v *view[T]) DequeueBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	got := v.cons[v.home].DequeueBatch(dst)
	if got == 0 {
		v.stealPause()
	}
	n := len(v.cons)
	for d := 1; d < n && got < len(dst); d++ {
		stolen := v.cons[(v.home+d)%n].DequeueBatch(dst[got:])
		if stolen > 0 {
			got += stolen
			if r := v.q.rec; r != nil {
				r.Add(obs.DeqSteals, uint64(stolen))
			}
		}
	}
	if got == 0 {
		v.miss()
	} else {
		v.hit()
	}
	return got
}
