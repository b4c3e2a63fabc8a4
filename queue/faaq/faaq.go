// Package faaq implements an FAA-based "infinite array" MPMC queue:
// enqueuers and dequeuers each claim a cell with one fetch-and-add on a
// global counter and resolve enqueue/dequeue races per cell with an
// atomic state protocol.
//
// This is the fast path of Yang & Mellor-Crummey's wait-free queue (the
// paper's fastest baseline, WF-Queue), without the wait-free helping slow
// path: the paper notes operations make progress in practice, so the
// contended-FAA cost profile — the property SBQ is compared against — is
// the fast path's. Progress here is lock-free rather than wait-free; see
// DESIGN.md for the substitution rationale.
package faaq

import (
	"sync/atomic"

	"repro/internal/obs"
)

// SegSize is the number of cells per segment.
const SegSize = 1024

// Cell states.
const (
	cellEmpty uint32 = iota // no one has arrived
	cellFull                // enqueuer published a value
	cellTaken               // dequeuer claimed (possibly poisoning) the cell
)

type cell[T any] struct {
	state atomic.Uint32
	v     T
}

type segment[T any] struct {
	// id is the index of cells[0] divided by SegSize. It is written only
	// while the segment is private, and the CAS that links the segment
	// orders that write before every read, so it needs no atomic store.
	id    uint64
	next  atomic.Pointer[segment[T]]
	cells [SegSize]cell[T]
}

// Queue is an FAA-based queue. Old segments are reclaimed by the garbage
// collector once head traffic moves past them.
type Queue[T any] struct {
	//lf:contended FAAed by every enqueuer
	enqIdx atomic.Uint64
	_      [56]byte
	//lf:contended FAAed by every dequeuer
	deqIdx atomic.Uint64
	_      [56]byte
	// enqSeg/deqSeg cache the segments serving the current indices; they
	// lag safely because segments are found by walking next pointers.
	//lf:contended read by every enqueuer, CASed forward at segment boundaries
	enqSeg atomic.Pointer[segment[T]]
	_      [56]byte
	//lf:contended read by every dequeuer, CASed forward at segment boundaries
	deqSeg atomic.Pointer[segment[T]]
	_      [56]byte
	rec    obs.Recorder // nil unless WithRecorder attached telemetry
	// ev is the timeline extension of rec (nil unless the recorder is a
	// flight-recorder collector); events land on the collector handle's
	// own lane (obs.LaneDefault).
	ev obs.EventRecorder
	// The tail pad makes Queue 320 B, a whole number of cache lines, so
	// consecutive allocations (a sharded front-end's shards) each start on
	// a line. At 288 B every other shard's enqIdx shared its line with the
	// previous shard's rec and ev, which every operation on that shard
	// reads (see DESIGN.md §7.3).
	_ [32]byte
}

// event records one timeline event, if a flight recorder is attached.
func (q *Queue[T]) event(k obs.EventKind, arg uint64) {
	if ev := q.ev; ev != nil {
		ev.Event(k, obs.LaneDefault, arg)
	}
}

// New returns an empty queue configured by opts.
func New[T any](opts ...Option) *Queue[T] {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	q := &Queue[T]{rec: o.rec, ev: obs.Events(o.rec)}
	s := &segment[T]{}
	q.enqSeg.Store(s)
	q.deqSeg.Store(s)
	return q
}

// findCell returns the cell with global index idx, walking (and extending)
// the segment list from start. start must have been loaded from the cache
// BEFORE idx was claimed: the cache trails its counter, so a pre-claim
// snapshot can never overshoot idx's segment; the snapshot keeps older
// segments alive against the GC while we walk.
func (q *Queue[T]) findCell(cache *atomic.Pointer[segment[T]], start *segment[T], idx uint64) *cell[T] {
	c, _ := q.findCellSeg(cache, start, idx)
	return c
}

// findCellSeg is findCell, also returning idx's segment so batch loops
// over ascending indices can resume the walk where the last one ended.
func (q *Queue[T]) findCellSeg(cache *atomic.Pointer[segment[T]], start *segment[T], idx uint64) (*cell[T], *segment[T]) {
	seg := start
	for seg.id != idx/SegSize {
		next := seg.next.Load()
		if next == nil {
			//lint:ignore allocfree one segment per SegSize claimed cells by design; the registry's GC-mode allocation pins fix the cost
			n := &segment[T]{id: seg.id + 1}
			//lint:ignore casloop helping loop: a failed extend-CAS means another thread appended the segment we need
			if seg.next.CompareAndSwap(nil, n) {
				next = n
			} else {
				next = seg.next.Load()
			}
		}
		seg = next
	}
	// Advance the cache monotonically; it stays behind the counter
	// because idx was claimed from it.
	for {
		cur := cache.Load()
		if cur.id >= seg.id {
			break
		}
		//lint:ignore casloop monotonic cache advance: a failed CAS means the cache moved forward, shrinking the remaining gap
		if cache.CompareAndSwap(cur, seg) {
			break
		}
	}
	return &seg.cells[idx%SegSize], seg
}

// Enqueue claims a cell with one FAA and publishes v; if a fast dequeuer
// already poisoned the cell, it claims the next one.
//
//lf:hotpath
func (q *Queue[T]) Enqueue(v T) {
	if r := q.rec; r != nil {
		r.Inc(obs.EnqOps)
	}
	q.event(obs.EvEnqStart, 0)
	for first := true; ; first = false {
		if !first {
			if r := q.rec; r != nil {
				r.Inc(obs.EnqRetries)
			}
		}
		seg := q.enqSeg.Load() // snapshot before the claim; see findCell
		idx := q.enqIdx.Add(1) - 1
		c := q.findCell(&q.enqSeg, seg, idx)
		c.v = v
		q.event(obs.EvCASAttempt, idx)
		if c.state.CompareAndSwap(cellEmpty, cellFull) {
			q.event(obs.EvEnqEnd, 1)
			return
		}
		q.event(obs.EvCASFailure, idx)
		// Poisoned by an overtaking dequeuer; retry at a fresh index.
	}
}

// Dequeue claims a cell with one FAA and takes its value, poisoning cells
// whose enqueuer has not arrived.
//
//lf:hotpath
func (q *Queue[T]) Dequeue() (T, bool) {
	var zero T
	q.event(obs.EvDeqStart, 0)
	for first := true; ; first = false {
		if !first {
			if r := q.rec; r != nil {
				r.Inc(obs.DeqRetries)
			}
		}
		if q.deqIdx.Load() >= q.enqIdx.Load() {
			if r := q.rec; r != nil {
				r.Inc(obs.DeqEmpty)
			}
			q.event(obs.EvDeqEnd, 0)
			return zero, false
		}
		seg := q.deqSeg.Load() // snapshot before the claim; see findCell
		idx := q.deqIdx.Add(1) - 1
		c := q.findCell(&q.deqSeg, seg, idx)
		if c.state.Swap(cellTaken) == cellFull {
			if r := q.rec; r != nil {
				r.Inc(obs.DeqOps)
			}
			q.event(obs.EvDeqEnd, 1)
			return c.v, true
		}
		// The enqueuer of this cell has not arrived; it will see the
		// poison and move on. Claim the next cell.
	}
}

// EnqueueBatch publishes vs in order, claiming len(vs) consecutive cells
// with ONE fetch-and-add — the batch analogue of the paper's basket:
// where §5 amortizes the serialized handoff over the k operations that
// happened to collide, the batch amortizes it over the k elements the
// caller already grouped. Cells poisoned by overtaking dequeuers are
// rare; when one is hit, the not-yet-published suffix of the batch moves
// wholesale to a fresh contiguous claim so intra-batch FIFO order is
// preserved (already-claimed later cells are simply abandoned to the
// dequeuers' poison path, like a single Enqueue's failed cell).
//
//lf:hotpath
func (q *Queue[T]) EnqueueBatch(vs []T) {
	if len(vs) == 0 {
		return
	}
	if r := q.rec; r != nil {
		r.Add(obs.EnqOps, uint64(len(vs)))
		r.Inc(obs.EnqBatches)
	}
	q.event(obs.EvEnqStart, uint64(len(vs)))
	rest := vs
	for {
		seg := q.enqSeg.Load() // snapshot before the claim; see findCell
		n := uint64(len(rest))
		base := q.enqIdx.Add(n) - n
		publishedAll := true
		for j := uint64(0); j < n; j++ {
			var c *cell[T]
			c, seg = q.findCellSeg(&q.enqSeg, seg, base+j)
			c.v = rest[j]
			q.event(obs.EvCASAttempt, base+j)
			if !c.state.CompareAndSwap(cellEmpty, cellFull) {
				// A dequeuer overtook this cell. Re-claim the whole
				// unpublished suffix (this element included) at fresh
				// indices; cells j+1..n-1 of this claim stay empty and
				// will be poisoned by dequeuers in their own time.
				q.event(obs.EvCASFailure, base+j)
				if r := q.rec; r != nil {
					r.Add(obs.EnqRetries, n-j)
				}
				rest = rest[j:]
				publishedAll = false
				break
			}
		}
		if publishedAll {
			q.event(obs.EvEnqEnd, uint64(len(vs)))
			return
		}
	}
}

// DequeueBatch fills a prefix of dst in queue order, claiming each block
// of cells with ONE fetch-and-add. The claim is bounded by the published
// index, so an over-large dst does not poison unwritten cells beyond
// what concurrent single dequeues would. Returns the number of elements
// written; 0 means the queue appeared empty.
//
//lf:hotpath
func (q *Queue[T]) DequeueBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	q.event(obs.EvDeqStart, uint64(len(dst)))
	if r := q.rec; r != nil {
		r.Inc(obs.DeqBatches)
	}
	got := 0
	for got < len(dst) {
		d, e := q.deqIdx.Load(), q.enqIdx.Load()
		if d >= e {
			break // appeared empty
		}
		n := uint64(len(dst) - got)
		if avail := e - d; avail < n {
			n = avail
		}
		seg := q.deqSeg.Load() // snapshot before the claim; see findCell
		base := q.deqIdx.Add(n) - n
		misses := uint64(0)
		for j := uint64(0); j < n; j++ {
			var c *cell[T]
			c, seg = q.findCellSeg(&q.deqSeg, seg, base+j)
			if c.state.Swap(cellTaken) == cellFull {
				dst[got] = c.v
				got++
			} else {
				// Poisoned an unpublished cell; its enqueuer retries
				// elsewhere, we just got fewer elements than claimed.
				misses++
			}
		}
		if r := q.rec; r != nil && misses > 0 {
			r.Add(obs.DeqRetries, misses)
		}
	}
	if r := q.rec; r != nil {
		if got > 0 {
			r.Add(obs.DeqOps, uint64(got))
		} else {
			r.Inc(obs.DeqEmpty)
		}
	}
	q.event(obs.EvDeqEnd, uint64(got))
	return got
}
