package sbq

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Cell states of the basket.
const (
	cellInsert uint32 = iota // reserved for its joiner
	cellFull                 // holds a value
	cellEmpty                // claimed by an extractor
)

// basketIDs issues process-unique basket identities for the lifecycle
// timeline (EvBasketOpen/EvBasketClose pair on the same id).
var basketIDs atomic.Uint64

// cell is one joiner's cell. Cells are packed, as in the paper's C
// implementation: a basket belongs to one queue node, so padding here
// would be paid on every node allocation (DESIGN §7.3).
type cell[T any] struct {
	state atomic.Uint32
	v     T
}

// basket is the paper's scalable basket (Algorithms 8-9, §5.2.1), the
// basket of every node, with one departure (DESIGN §5.4): the element of
// the node's linker, its own element, is a plain field written while the
// node is private, and only joiners, the handles that lost a linking CAS
// to this node, use the paper's cells, bound-1 of them (bound is the
// queue's enqueuer count). Extractors claim indices with FAA: 0..bound-2
// take a cell with Algorithm 9's SWAP, and the last, bound-1, which
// exactly one FAA returns, takes own. The counter is the empty bit.
//
// It has the property the queue's linearizability rests on (§5.3.2): once
// empty reports true, every later extract fails.
//
// A basket holds no recorder. Its callers hold the queue and pass the
// queue's recorders, so a node carries no pointer to them.
type basket[T any] struct {
	cells   []cell[T] // joiner cells
	counter atomic.Uint64
	own     T // the linker's element, extraction index len(cells)
	// id pairs the basket's EvBasketOpen and EvBasketClose (0 unless a
	// flight recorder is attached).
	id uint64
}

// open records the basket's EvBasketOpen, if a flight recorder is
// attached.
func (b *basket[T]) open(ev obs.EventRecorder) {
	if ev != nil {
		b.id = basketIDs.Add(1)
		ev.Event(obs.EvBasketOpen, obs.LaneDefault, b.id)
	}
}

// close records the basket's EvBasketClose, if a flight recorder is
// attached.
func (b *basket[T]) close(ev obs.EventRecorder) {
	if ev != nil {
		ev.Event(obs.EvBasketClose, obs.LaneDefault, b.id)
	}
}

// fill writes the linker's own element. Legal only while the node is
// private; a reused node (§5.2.2) is simply overwritten.
func (b *basket[T]) fill(x T, rec *obs.Stats) {
	b.own = x
	if rec != nil {
		rec.Inc(obs.BasketInserts)
	}
}

// joinCell is handle id's cell in a basket of bound indices linked by
// handle linker: (id - linker - 1) mod bound, one-to-one from the other
// bound-1 handles onto cells 0..bound-2. id is never linker: a handle
// joins only the node that beat its own linking CAS, which another
// handle linked.
func joinCell(id, linker, bound int) int {
	c := id - linker - 1
	if c < 0 {
		c += bound
	}
	return c
}

// join publishes x, the element of handle id, in its cell of a basket
// linked by handle linker: synchronization-free in the sense that
// distinct joiners never contend with each other. It fails once an
// extractor has swept the cell.
func (b *basket[T]) join(id, linker int, x T, rec *obs.Stats) bool {
	c := &b.cells[joinCell(id, linker, len(b.cells)+1)]
	if c.state.Load() != cellInsert {
		if rec != nil {
			rec.Inc(obs.BasketInsertFails)
		}
		return false
	}
	c.v = x
	ok := c.state.CompareAndSwap(cellInsert, cellFull)
	if rec != nil {
		if ok {
			rec.Inc(obs.BasketInserts)
		} else {
			rec.Inc(obs.BasketInsertFails)
		}
	}
	return ok
}

// extract claims an index with FAA and takes what is there, retrying
// past cells whose joiner never arrived. The extractor that claims the
// last index takes the own element and closes the basket.
func (b *basket[T]) extract(rec *obs.Stats, ev obs.EventRecorder) (T, bool) {
	v, ok := b.take(ev)
	if rec != nil {
		if ok {
			rec.Inc(obs.BasketExtracts)
		} else {
			rec.Inc(obs.BasketExtractFails)
		}
	}
	return v, ok
}

func (b *basket[T]) take(ev obs.EventRecorder) (T, bool) {
	var zero T
	last := uint64(len(b.cells))
	if b.counter.Load() > last {
		return zero, false
	}
	for {
		idx := b.counter.Add(1) - 1
		if idx < last {
			c := &b.cells[idx]
			if c.state.Swap(cellEmpty) == cellFull {
				return c.v, true
			}
			continue
		}
		if idx > last {
			return zero, false
		}
		b.close(ev)
		return b.own, true
	}
}

// empty reports whether every index is claimed; false negatives are
// allowed by the basket specification.
func (b *basket[T]) empty() bool { return b.counter.Load() > uint64(len(b.cells)) }
