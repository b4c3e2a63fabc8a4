// Package sbq implements the paper's scalable baskets queue natively in
// Go: the modular baskets queue of §5.2 (Algorithms 2-6) with a pluggable
// basket (§5.2.1).
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
// The basket must guarantee the property of §5.3.2: once the basket is
// indicated empty, every future Extract fails. Both baskets in
// repro/basket satisfy it.
//
// Threads interact with the queue through handles: each producer goroutine
// needs its own Handle (carrying its basket cell index and its reusable
// node); consumers may share one or use handles too. Memory reclamation is
// delegated to Go's garbage collector by default; WithNodePool switches to
// pooled-node mode, where nodes (and their baskets, re-armed via
// basket.Resettable) recycle through a reclaim.Pool under epoch guards —
// the native analogue of the paper's epoch scheme, which is otherwise
// reproduced on the simulator where memory is manual.
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

	"repro/basket"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/reclaim"
)

// node is a queue node: a basket plus a link and a position index.
type node[T any] struct {
	basket basket.Basket[T]
	next   atomic.Pointer[node[T]]
	// index is the node's position in the list (predecessor's plus one);
	// it doubles as the pooled-mode reclamation stamp. Atomic because a
	// stale reader may race a pooled node's re-stamping (see reclaim's
	// protocol note).
	index atomic.Uint64
	// retired arbitrates the head- and tail-side passes that may
	// concurrently discover the node is behind both pointers; only the
	// CAS winner retires it.
	retired atomic.Bool
	// linker is the id of the handle that prepared the node, written while
	// the node is private, so a contender that loses the linking CAS to it
	// can name the winner (see txcas.Node).
	linker int
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

	enqueuers int
	// eng runs every linking CAS (txcas.GuardedCAS) and owns its
	// telemetry, so soft aborts genuinely reduce measured attempts and
	// failures.
	eng       *txcas.Engine
	newBasket func() basket.Basket[T]
	rec       obs.Recorder // nil unless WithRecorder attached telemetry
	// ev is the timeline extension of rec (nil unless the recorder is a
	// flight-recorder collector). Producer events land on lane=handle id;
	// dequeues use the collector handle's own lane (obs.LaneDefault).
	ev obs.EventRecorder

	producers atomic.Int64 // handles issued

	// epoch/pool are non-nil in pooled-node mode (WithNodePool). A node
	// is retired by whichever of the head and tail pointers passes it
	// last (both passes consult the other pointer's position; the
	// retired flag arbitrates the race where they tie), so neither
	// pointer ever dangles at a retired node and the announce-and-verify
	// protocol on head/tail snapshots is sound.
	epoch *reclaim.Epoch
	pool  *reclaim.Pool[node[T]]
}

// New returns a queue configured by opts. With no options it sizes itself
// for GOMAXPROCS producer handles, uses the scalable basket, a plain-CAS
// try_append, and no telemetry.
func New[T any](opts ...Option) *Queue[T] {
	o, enqueuers := buildOptions[T](opts)
	q := &Queue[T]{enqueuers: enqueuers, rec: o.rec, ev: obs.Events(o.rec)}
	if o.newBasket != nil {
		q.newBasket = o.newBasket.(func() basket.Basket[T])
	} else {
		// The options are built once per queue, not once per node: as
		// closures created inside newBasket they would each escape to the
		// heap wherever the compiler does not inline the With* calls.
		bopts := []basket.Option{
			basket.WithCapacity(enqueuers),
			basket.WithBound(enqueuers),
			basket.WithRecorder(o.rec),
		}
		q.newBasket = func() basket.Basket[T] { return basket.New[T](bopts...) }
	}
	// The queue's recorder and window come first so WithTxCAS options
	// override them. Without WithTxCAS the window is 0: a plain CAS.
	window := time.Duration(0)
	if o.txcas {
		window = txcas.DefaultWindow
	}
	q.eng = txcas.NewEngine(append([]txcas.Option{txcas.WithWindow(window), txcas.WithRecorder(o.rec)}, o.txcasOpts...)...)
	if o.pooled {
		if _, ok := q.newBasket().(basket.Resettable); !ok {
			panic("sbq: WithNodePool requires a basket implementing basket.Resettable")
		}
		q.epoch = reclaim.NewEpoch()
		q.pool = reclaim.NewPool(q.epoch, func() *node[T] { return &node[T]{basket: q.newBasket()} }, func(n *node[T]) {
			n.next.Store(nil)
			n.retired.Store(false)
			n.basket.(basket.Resettable).Reset()
		})
	}
	sentinel := &node[T]{basket: q.newBasket()}
	// The sentinel's basket must read as exhausted.
	for {
		if _, ok := sentinel.basket.Extract(); !ok {
			break
		}
	}
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	return q
}

// getNode returns a fresh or recycled node with an open, empty basket,
// prepared by handle linker.
func (q *Queue[T]) getNode(linker int) *node[T] {
	if p := q.pool; p != nil {
		n := p.Get()
		n.linker = linker
		return n
	}
	//lint:ignore allocfree GC mode allocates one node (and basket) per appended node by design; WithNodePool is the zero-alloc configuration the gates enforce
	return &node[T]{basket: q.newBasket(), linker: linker}
}

// protect pins src's current node against pooled reuse (announce-and-
// verify; sound because neither list pointer ever dangles at a retired
// node) and returns it. With a nil guard it is a plain load.
func (q *Queue[T]) protect(src *atomic.Pointer[node[T]], g *reclaim.Guard) *node[T] {
	n := src.Load()
	if g == nil {
		return n
	}
	for {
		g.Protect(n.index.Load())
		again := src.Load()
		if again == n {
			return n
		}
		n = again
	}
}

// passedIndex reads ptr's current position with the verify re-load, so
// the result is a sound lower bound even if the loaded node is freed and
// re-stamped between the two loads (an ABA re-install can only make the
// read conservative, never inflated).
func (q *Queue[T]) passedIndex(ptr *atomic.Pointer[node[T]]) uint64 {
	for {
		n := ptr.Load()
		idx := n.index.Load()
		if ptr.Load() == n {
			return idx
		}
	}
}

// maybeRetire retires n — which the caller's pointer CAS just passed —
// if the other pointer has passed it too (its position exceeds n's).
func (q *Queue[T]) maybeRetire(n *node[T], otherIdx uint64) {
	if idx := n.index.Load(); idx < otherIdx && n.retired.CompareAndSwap(false, true) {
		q.pool.Retire(idx, n)
	}
}

// retireRange runs maybeRetire over [from, to) after the caller's CAS
// moved ptr from from to to; the caller's guard still pins the range.
func (q *Queue[T]) retireRange(ptr *atomic.Pointer[node[T]], from, to *node[T]) {
	if q.pool == nil {
		return
	}
	other := &q.head
	if ptr == &q.head {
		other = &q.tail
	}
	limit := q.passedIndex(other)
	for s := from; s != to; {
		next := s.next.Load()
		q.maybeRetire(s, limit)
		s = next
	}
}

// Handle is a per-goroutine view of the queue. Producer handles own a
// basket cell index and the node-reuse slot of §5.2.2. A Handle must not
// be shared between goroutines.
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
// not just appends. In pooled mode the winning CAS owns retirement of
// the nodes it jumped over (those the other pointer has also passed).
func (q *Queue[T]) advance(ptr *atomic.Pointer[node[T]], n *node[T]) {
	r := q.rec
	for {
		old := ptr.Load()
		if old.index.Load() >= n.index.Load() {
			return
		}
		if r != nil {
			r.Inc(obs.CASAttempts)
		}
		if ptr.CompareAndSwap(old, n) {
			q.retireRange(ptr, old, n)
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
	var g *reclaim.Guard
	if q.epoch != nil {
		g = q.epoch.Acquire()
	}
	t := q.protect(&q.tail, g)
	n := h.reserved
	if n == nil {
		n = q.getNode(h.id)
	} else {
		n.basket.ResetOwn(h.id) // undo the previous insertion (§5.2.2)
	}
	n.basket.Insert(h.id, v)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r := q.rec; r != nil {
				r.Inc(obs.EnqRetries)
			}
		}
		n.index.Store(t.index.Load() + 1)
		switch q.tryAppend(t, n, lane) {
		case appendSuccess:
			if q.tail.CompareAndSwap(t, n) && q.pool != nil {
				// We passed t; retire it if the head has too.
				q.maybeRetire(t, q.passedIndex(&q.head))
			}
			h.reserved = nil
			if g != nil {
				q.epoch.Release(g)
			}
			q.event(obs.EvEnqEnd, lane, 1)
			return
		case appendFailure:
			t = t.next.Load()
			if t.basket.Insert(h.id, v) {
				h.reserved = n // keep the unappended node for reuse
				if g != nil {
					q.epoch.Release(g)
				}
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
	// Build the private chain directly through the nodes' next links —
	// no scratch slice, so the batch path stays allocation-free in
	// pooled mode.
	var first, last *node[T]
	for _, v := range vs {
		n := h.reserved
		if n != nil {
			h.reserved = nil
			n.basket.ResetOwn(h.id) // undo the previous insertion (§5.2.2)
			n.next.Store(nil)
		} else {
			n = q.getNode(h.id)
		}
		n.basket.Insert(h.id, v)
		if first == nil {
			first = n
		} else {
			last.next.Store(n)
		}
		last = n
	}
	var g *reclaim.Guard
	if q.epoch != nil {
		g = q.epoch.Acquire()
	}
	t := q.protect(&q.tail, g)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r := q.rec; r != nil {
				r.Inc(obs.EnqRetries)
			}
		}
		idx := t.index.Load()
		for n := first; n != nil; n = n.next.Load() {
			idx++
			n.index.Store(idx)
		}
		if q.tryAppend(t, first, lane) == appendSuccess {
			q.advance(&q.tail, last)
			if g != nil {
				q.epoch.Release(g)
			}
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
	var g *reclaim.Guard
	if q.epoch != nil {
		g = q.epoch.Acquire()
	}
	h := q.protect(&q.head, g)
	var v T
	var ok bool
	rounds := 0
	for {
		rounds++
		for h.basket.Empty() {
			nx := h.next.Load()
			if nx == nil {
				break
			}
			h = nx
		}
		v, ok = h.basket.Extract()
		if ok || h.next.Load() == nil {
			break
		}
	}
	q.advance(&q.head, h)
	if g != nil {
		q.epoch.Release(g)
	}
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
	var g *reclaim.Guard
	if q.epoch != nil {
		g = q.epoch.Acquire()
	}
	h := q.protect(&q.head, g)
	got := 0
	rounds := 0
	for got < len(dst) {
		rounds++
		for h.basket.Empty() {
			nx := h.next.Load()
			if nx == nil {
				goto drained
			}
			h = nx
		}
		if v, ok := h.basket.Extract(); ok {
			dst[got] = v
			got++
		} else if h.next.Load() == nil {
			break
		}
	}
drained:
	q.advance(&q.head, h)
	if g != nil {
		q.epoch.Release(g)
	}
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
