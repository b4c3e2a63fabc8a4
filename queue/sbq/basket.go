package sbq

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Cell states of the basket.
const (
	cellInsert uint32 = iota // reserved for its inserter
	cellFull                 // holds a value
	cellEmpty                // claimed by an extractor
)

// basketIDs issues process-unique basket identities for the lifecycle
// timeline (EvBasketOpen/EvBasketClose pair on the same id).
var basketIDs atomic.Uint64

// cell is one inserter's cell. Cells are packed, as in the paper's C
// implementation: a basket belongs to one queue node, so padding here
// would be paid on every node allocation (DESIGN §7.3).
type cell[T any] struct {
	state atomic.Uint32
	v     T
}

// basket is the paper's scalable basket (Algorithms 8-9, §5.2.1), the
// basket of every node: one private cell per producer handle, an
// extraction counter scanned with FAA, and an empty bit set by the
// extractor that claims the last index. Extraction scans every cell, so
// the bound of Algorithm 9 is len(cells), the queue's enqueuer count.
//
// It has the property the queue's linearizability rests on (§5.3.2): once
// empty reports true, every later extract fails.
//
// A basket holds no recorder. Its callers hold the queue and pass the
// queue's recorders, so a node carries no pointer to them.
type basket[T any] struct {
	cells   []cell[T]
	counter atomic.Uint64
	drained atomic.Bool // the empty bit
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

// close sets the empty bit and records the basket's EvBasketClose.
func (b *basket[T]) close(ev obs.EventRecorder) {
	b.drained.Store(true)
	if ev != nil {
		ev.Event(obs.EvBasketClose, obs.LaneDefault, b.id)
	}
}

// insert publishes x in inserter id's private cell: synchronization-free
// in the sense that distinct inserters never contend with each other. It
// fails once an extractor has swept the cell.
func (b *basket[T]) insert(id int, x T, rec *obs.Stats) bool {
	c := &b.cells[id]
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

// extract claims an index with FAA and takes whatever its inserter
// published, retrying past cells whose inserter never arrived. The
// extractor that claims the last index closes the basket.
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
	if b.drained.Load() {
		return zero, false
	}
	bound := uint64(len(b.cells))
	for {
		idx := b.counter.Add(1) - 1
		if idx >= bound {
			return zero, false
		}
		if idx == bound-1 {
			b.close(ev)
		}
		c := &b.cells[idx]
		if c.state.Swap(cellEmpty) == cellFull {
			return c.v, true
		}
	}
}

// empty reports the empty bit; false negatives are allowed by the basket
// specification.
func (b *basket[T]) empty() bool { return b.drained.Load() }

// reset returns inserter id's cell to the insertable state. Only legal on
// the basket of an unpublished node (node reuse, §5.2.2).
func (b *basket[T]) reset(id int) {
	b.cells[id].state.Store(cellInsert)
}
