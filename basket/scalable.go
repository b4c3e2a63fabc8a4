package basket

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Cell states for the scalable basket.
const (
	cellInsert uint32 = iota // reserved for its inserter
	cellFull                 // holds a value
	cellEmpty                // claimed by an extractor
)

// scell is one inserter's cell. Cells are packed, as in the paper's C
// implementation: a basket belongs to one queue node, so padding here
// would be paid on every node allocation (DESIGN §7.3).
type scell[T any] struct {
	state atomic.Uint32
	v     T
}

// Scalable is the paper's scalable basket (Algorithms 8-9): an array with
// one private cell per inserter, an extraction counter scanned with FAA,
// and an empty bit set by the extractor that claims the last index.
// Build it with New or Maker; a Maker constructor can build it inside a
// caller's allocation, such as a queue node.
type Scalable[T any] struct {
	cells   []scell[T]
	counter atomic.Uint64
	empty   atomic.Bool
	set     *settings // shared with every basket of the same Maker
	// id pairs the basket's EvBasketOpen and EvBasketClose (0 unless a
	// flight recorder is attached).
	id uint64
}

// Insert publishes x in inserter id's private cell: synchronization-free
// in the sense that distinct inserters never contend with each other.
//
//lf:hotpath
func (b *Scalable[T]) Insert(id int, x T) bool {
	c := &b.cells[id]
	if c.state.Load() != cellInsert {
		if r := b.set.rec; r != nil {
			r.Inc(obs.BasketInsertFails)
		}
		return false
	}
	c.v = x
	ok := c.state.CompareAndSwap(cellInsert, cellFull)
	if r := b.set.rec; r != nil {
		if ok {
			r.Inc(obs.BasketInserts)
		} else {
			r.Inc(obs.BasketInsertFails)
		}
	}
	return ok
}

// Extract claims an index with FAA and takes whatever its inserter
// published, retrying past cells whose inserter never arrived. The
// extractor that claims the last index sets the empty bit.
//
//lf:hotpath
func (b *Scalable[T]) Extract() (T, bool) {
	v, ok := b.extract()
	if r := b.set.rec; r != nil {
		if ok {
			r.Inc(obs.BasketExtracts)
		} else {
			r.Inc(obs.BasketExtractFails)
		}
	}
	return v, ok
}

func (b *Scalable[T]) extract() (T, bool) {
	var zero T
	if b.empty.Load() {
		return zero, false
	}
	bound := uint64(b.set.bound)
	for {
		idx := b.counter.Add(1) - 1
		if idx >= bound {
			return zero, false
		}
		if idx == bound-1 {
			b.empty.Store(true)
			if ev := b.set.ev; ev != nil {
				ev.Event(obs.EvBasketClose, obs.LaneDefault, b.id)
			}
		}
		c := &b.cells[idx]
		if c.state.Swap(cellEmpty) == cellFull {
			return c.v, true
		}
	}
}

// Empty reports the empty bit; false negatives are allowed per the spec.
//
//lf:hotpath
func (b *Scalable[T]) Empty() bool { return b.empty.Load() }

// ResetOwn returns inserter id's cell to the insertable state. Only legal
// on an unpublished basket (node reuse, §5.2.2).
func (b *Scalable[T]) ResetOwn(id int) {
	b.cells[id].state.Store(cellInsert)
}

// Reset re-arms a drained basket for reuse: every cell back to the
// insertable state with its value dropped, scan counter zeroed, empty
// bit cleared. Only legal on a basket no other goroutine can reach (see
// basket.Resettable).
func (b *Scalable[T]) Reset() {
	var zero T
	for i := range b.cells {
		c := &b.cells[i]
		c.v = zero
		c.state.Store(cellInsert)
	}
	b.counter.Store(0)
	b.empty.Store(false)
}

// Capacity returns the number of cells.
func (b *Scalable[T]) Capacity() int { return len(b.cells) }
