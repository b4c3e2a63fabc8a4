// Package sbq implements the paper's scalable baskets queue natively in
// Go: the modular baskets queue of §5.2 (Algorithms 2-6) whose every node
// embeds the scalable basket (Algorithms 8-9).
//
// Go exposes no hardware transactional memory and its runtime would abort
// transactional sections, so the native SBQ cannot use the HTM TxCAS.
// Its try_append has one linking-CAS path, repro/internal/txcas's
// GuardedCAS, in three configurations: a plain CAS (the default, the
// SBQ-CAS variant the paper evaluates to isolate TxCAS's contribution,
// §6.1); a delayed CAS (WithTxCAS with a policy.DelayedCAS policy); and
// the software TxCAS (WithTxCAS), where contending enqueuers watch the
// link itself during a calibrated speculation window and abandon doomed
// linking CASes before issuing them, naming the winner — the paper's
// profit-from-failure effect approximated on real cores. The HTM-backed
// SBQ runs on the repository's simulated machine (repro/internal/simqueue).
//
// The queue relies on the basket property of §5.3.2: once a basket is
// indicated empty, every later extraction from it fails. The scalable
// basket has it (basket.go); the paper's other baskets, the original
// baskets queue's and the §8 partitioned one, run on the simulated track.
//
// Threads interact with the queue through handles: each producer goroutine
// needs its own Handle (carrying its basket cell index and its reusable
// node); consumers may share one or use handles too. Memory reclamation is
// delegated to Go's garbage collector; the paper's epoch scheme
// (Algorithm 7) is reproduced on the simulator, where memory is manual.
//
// Queues are built with functional options:
//
//	q := sbq.New[uint64](
//		sbq.WithEnqueuers(8),
//		sbq.WithTxCAS(),
//		sbq.WithRecorder(rec),
//	)
package sbq

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/txcas"
)

// node is a queue node: a link, a position index and a basket. The basket
// is embedded, so a node and its basket are one allocation, plus the
// basket's cell slice.
type node[T any] struct {
	// next is the linking CAS's target, and it leads the node: a node is
	// 72 B in the 80 B size class, so its last line is shared with the
	// next node its P allocates, which the enqueuer writes while
	// contenders may still CAS this link (DESIGN §5.3).
	next atomic.Pointer[node[T]]
	// index is the node's position in the list (predecessor's plus one).
	// Like linker it is written only while the node is private, and the
	// linking CAS that publishes the node orders those writes before every
	// read, so it needs no atomic store.
	index uint64
	// linker is the id of the handle that prepared the node, written while
	// the node is private, so a contender that loses the linking CAS to it
	// can name the winner (see txcas.Node).
	linker int
	basket basket[T]
}

// Linker implements txcas.Node.
func (n *node[T]) Linker() int { return n.linker }

// Queue is the scalable baskets queue.
type Queue[T any] struct {
	//lf:contended swung by every dequeuer's advanceNode catch-up CAS
	head atomic.Pointer[node[T]]
	_    [56]byte
	//lf:contended every enqueuer races the linking CAS and then swings tail
	tail atomic.Pointer[node[T]]
	_    [56]byte

	enqueuers int // cells per basket, one per producer handle
	// eng runs every linking CAS (txcas.GuardedCAS) and owns its
	// telemetry, so soft aborts genuinely reduce measured attempts and
	// failures.
	eng *txcas.Engine
	rec *obs.Stats // nil unless WithRecorder attached telemetry
	// ev is rec's flight recorder (nil unless rec carries one). Producer
	// events land on lane=handle id; dequeues use the collector handle's
	// own lane (obs.LaneDefault).
	ev obs.EventRecorder

	producers atomic.Int64 // handles issued
	_         [16]byte     // whole cache lines (padcheck)
}

// New returns a queue configured by opts. With no options it sizes itself
// for GOMAXPROCS producer handles, uses a plain-CAS try_append, and records
// no telemetry.
func New[T any](opts ...Option) *Queue[T] {
	o, enqueuers := buildOptions(opts)
	q := &Queue[T]{enqueuers: enqueuers, rec: o.rec, ev: o.rec.Events()}
	// The queue's recorder and window come first so WithTxCAS options
	// override them. Without WithTxCAS the window is 0: a plain CAS.
	window := time.Duration(0)
	if o.txcas {
		window = txcas.DefaultWindow
	}
	q.eng = txcas.NewEngine(append([]txcas.Option{txcas.WithWindow(window), txcas.WithRecorder(o.rec)}, o.txcasOpts...)...)
	// The sentinel's basket is built exhausted: its counter at the bound
	// and its empty bit set, with no extraction recorded. No enqueuer joins
	// it, because only a node that won a linking CAS is joined.
	sentinel := q.newNode(0)
	sentinel.basket.counter.Store(uint64(enqueuers))
	sentinel.basket.close(q.ev)
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	return q
}

// newNode allocates a node prepared by handle linker, with its basket
// open and empty.
func (q *Queue[T]) newNode(linker int) *node[T] {
	//lint:ignore allocfree each appended node is two allocations, the node and its basket's cell slice, by design; the registry's GC-mode allocation pins fix the count
	n := &node[T]{basket: basket[T]{cells: make([]cell[T], q.enqueuers)}, linker: linker}
	n.basket.open(q.ev)
	return n
}

// Handle is a per-goroutine view of the queue. A producer handle owns one
// cell of every node's basket (its id) and the node-reuse slot of §5.2.2.
// A Handle must not be shared between goroutines.
type Handle[T any] struct {
	q        *Queue[T]
	id       int // basket cell index for this producer
	reserved *node[T]
}

// NewHandle issues a producer handle. At most Enqueuers handles may be
// issued; more panic. Consumers may also use handles (the id is unused on
// the dequeue path), or call Queue.Dequeue directly.
func (q *Queue[T]) NewHandle() *Handle[T] {
	id := int(q.producers.Add(1)) - 1
	if id >= q.enqueuers {
		panic("sbq: more producer handles than configured enqueuers")
	}
	return &Handle[T]{q: q, id: id}
}

// event records one timeline event, if a flight recorder is attached.
func (q *Queue[T]) event(k obs.EventKind, lane int32, arg uint64) {
	if ev := q.ev; ev != nil {
		ev.Event(k, lane, arg)
	}
}

// appendStatus is the result of tryAppend.
type appendStatus int

const (
	appendSuccess appendStatus = iota
	appendFailure
	appendBadTail
)

// tryAppend is Algorithm 4. The engine records the CAS counters and
// timeline events itself: a soft abort must *not* count as an issued CAS;
// that reduction is the measurable profit (§3). On appendFailure
// tail.next is non-nil, whether the CAS was issued or soft-aborted.
func (q *Queue[T]) tryAppend(tail, n *node[T], lane int32) appendStatus {
	if tail.next.Load() != nil {
		return appendBadTail
	}
	if txcas.GuardedCAS(q.eng, int(lane), &tail.next, n) {
		return appendSuccess
	}
	return appendFailure
}

// advance is Algorithm 6: advance *ptr to at least n. Retried CASes are
// charged to the recorder so the §3 accounting covers pointer catch-up,
// not just appends.
func (q *Queue[T]) advance(ptr *atomic.Pointer[node[T]], n *node[T]) {
	r := q.rec
	for {
		old := ptr.Load()
		if old.index >= n.index {
			return
		}
		if r != nil {
			r.Inc(obs.CASAttempts)
		}
		if ptr.CompareAndSwap(old, n) {
			return
		}
		if r != nil {
			r.Inc(obs.CASFailures)
		}
	}
}

// Enqueue is Algorithm 3: append a fresh node carrying the element in this
// handle's basket cell, or — profiting from the failed CAS — drop the
// element into the basket of the node that won.
//
//lf:hotpath
func (h *Handle[T]) Enqueue(v T) {
	q := h.q
	if r := q.rec; r != nil {
		r.Inc(obs.EnqOps)
	}
	lane := int32(h.id)
	q.event(obs.EvEnqStart, lane, 0)
	t := q.tail.Load()
	n := h.reserved
	if n == nil {
		n = q.newNode(h.id)
	} else {
		n.basket.reset(h.id) // undo the previous insertion (§5.2.2)
	}
	n.basket.insert(h.id, v, q.rec)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r := q.rec; r != nil {
				r.Inc(obs.EnqRetries)
			}
		}
		n.index = t.index + 1
		switch q.tryAppend(t, n, lane) {
		case appendSuccess:
			q.tail.CompareAndSwap(t, n)
			h.reserved = nil
			q.event(obs.EvEnqEnd, lane, 1)
			return
		case appendFailure:
			t = t.next.Load()
			if t.basket.insert(h.id, v, q.rec) {
				h.reserved = n // keep the unappended node for reuse
				q.event(obs.EvEnqEnd, lane, 1)
				return
			}
		}
		// BAD_TAIL or basket refusal: find the real tail, catch the
		// queue's tail pointer up, and retry.
		for {
			nx := t.next.Load()
			if nx == nil {
				break
			}
			t = nx
		}
		q.advance(&q.tail, t)
	}
}

// EnqueueBatch appends vs in order with ONE linking CAS: the handle
// builds a private chain of len(vs) nodes — each carrying one element in
// this handle's basket cell — links it fully before publication, and
// appends the whole chain where a single Enqueue appends one node. This
// is the basket-as-batch reading of §5: the paper's basket amortizes the
// serialized handoff over the k enqueuers whose CASs happened to fail
// together; the batch amortizes it over the k elements one producer
// already grouped. The chain's interior baskets are ordinary open
// baskets, so concurrent enqueuers whose CAS fails against the chain
// still profit by joining them.
//
// Unlike a failed single Enqueue, a failed chain CAS does not drop into
// the winner's basket (a basket holds at most one element per inserter
// id); it re-finds the tail and retries the whole chain.
//
//lf:hotpath
func (h *Handle[T]) EnqueueBatch(vs []T) {
	k := len(vs)
	if k == 0 {
		return
	}
	if k == 1 {
		h.Enqueue(vs[0])
		return
	}
	q := h.q
	if r := q.rec; r != nil {
		r.Add(obs.EnqOps, uint64(k))
		r.Inc(obs.EnqBatches)
	}
	lane := int32(h.id)
	q.event(obs.EvEnqStart, lane, uint64(k))
	// Build the private chain directly through the nodes' next links, so
	// the batch allocates its nodes and nothing else.
	var first, last *node[T]
	for _, v := range vs {
		n := h.reserved
		if n != nil {
			h.reserved = nil
			n.basket.reset(h.id) // undo the previous insertion (§5.2.2)
			n.next.Store(nil)
		} else {
			n = q.newNode(h.id)
		}
		n.basket.insert(h.id, v, q.rec)
		if first == nil {
			first = n
		} else {
			last.next.Store(n)
		}
		last = n
	}
	t := q.tail.Load()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r := q.rec; r != nil {
				r.Inc(obs.EnqRetries)
			}
		}
		idx := t.index
		for n := first; n != nil; n = n.next.Load() {
			idx++
			n.index = idx
		}
		if q.tryAppend(t, first, lane) == appendSuccess {
			q.advance(&q.tail, last)
			q.event(obs.EvEnqEnd, lane, uint64(k))
			return
		}
		// Chain CAS lost or BAD_TAIL: find the real tail, catch the
		// queue's tail pointer up, and retry the whole chain.
		for {
			nx := t.next.Load()
			if nx == nil {
				break
			}
			t = nx
		}
		q.advance(&q.tail, t)
	}
}

// Dequeue is Algorithm 5: find the first node with a non-exhausted basket
// and extract from it.
//
//lf:hotpath
func (h *Handle[T]) Dequeue() (T, bool) { return h.q.Dequeue() }

// DequeueBatch fills a prefix of dst; see Queue.DequeueBatch.
//
//lf:hotpath
func (h *Handle[T]) DequeueBatch(dst []T) int { return h.q.DequeueBatch(dst) }

// Dequeue removes and returns the oldest element. Unlike Enqueue it needs
// no per-thread state and may be called on the queue directly.
//
//lf:hotpath
func (q *Queue[T]) Dequeue() (T, bool) {
	var zero T
	q.event(obs.EvDeqStart, obs.LaneDefault, 0)
	h := q.head.Load()
	var v T
	var ok bool
	rounds := 0
	for {
		rounds++
		for h.basket.empty() {
			nx := h.next.Load()
			if nx == nil {
				break
			}
			h = nx
		}
		v, ok = h.basket.extract(q.rec, q.ev)
		if ok || h.next.Load() == nil {
			break
		}
	}
	q.advance(&q.head, h)
	if r := q.rec; r != nil {
		if ok {
			r.Inc(obs.DeqOps)
		} else {
			r.Inc(obs.DeqEmpty)
		}
		if rounds > 1 {
			r.Add(obs.DeqRetries, uint64(rounds-1))
		}
	}
	if !ok {
		q.event(obs.EvDeqEnd, obs.LaneDefault, 0)
		return zero, false
	}
	q.event(obs.EvDeqEnd, obs.LaneDefault, 1)
	return v, true
}

// DequeueBatch fills a prefix of dst in queue order and returns how many
// elements were written. It amortizes the dequeue side's serialized
// work: the node walk resumes in place between extractions and the head
// pointer is caught up ONCE per batch (one advanceNode CAS loop instead
// of one per element). Returns 0 when the queue appeared empty.
//
//lf:hotpath
func (q *Queue[T]) DequeueBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	q.event(obs.EvDeqStart, obs.LaneDefault, uint64(len(dst)))
	if r := q.rec; r != nil {
		r.Inc(obs.DeqBatches)
	}
	h := q.head.Load()
	got := 0
	rounds := 0
	for got < len(dst) {
		rounds++
		for h.basket.empty() {
			nx := h.next.Load()
			if nx == nil {
				goto drained
			}
			h = nx
		}
		if v, ok := h.basket.extract(q.rec, q.ev); ok {
			dst[got] = v
			got++
		} else if h.next.Load() == nil {
			break
		}
	}
drained:
	q.advance(&q.head, h)
	if r := q.rec; r != nil {
		if got > 0 {
			r.Add(obs.DeqOps, uint64(got))
		} else {
			r.Inc(obs.DeqEmpty)
		}
		if rounds > got+1 {
			r.Add(obs.DeqRetries, uint64(rounds-got-1))
		}
	}
	q.event(obs.EvDeqEnd, obs.LaneDefault, uint64(got))
	return got
}
