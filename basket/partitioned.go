package basket

import (
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/obs"
)

// Partitioned is an extension beyond the paper: a basket with more
// scalable extraction, the future work its §8 calls for ("designing a
// basket with scalable dequeue operations").
//
// The paper's scalable basket funnels every extraction through one
// fetch-and-add, so SBQ's dequeues serialize exactly like FAA-based
// queues (§5.3.4). Partitioned splits the cells into K partitions, each
// with its own extraction counter: extractors start at a random partition
// and only fall over to others when theirs is exhausted, cutting
// contention on any one counter by ~K. A partition's last index marks it
// exhausted; the extractor that exhausts the K-th partition sets the
// global empty bit, preserving the property SBQ's linearizability needs —
// once the basket is indicated empty, every future Extract fails.
type Partitioned[T any] struct {
	cells []scell[T]
	parts []partition
	// exhausted counts fully-swept partitions; empty is set when it
	// reaches len(parts).
	exhausted atomic.Int64
	empty     atomic.Bool
	set       *settings // shared with every basket of the same Maker
	// id pairs the basket's EvBasketOpen and EvBasketClose (0 unless a
	// flight recorder is attached).
	id uint64
}

type partition struct {
	//lf:contended extractors assigned to this partition FAA the scan counter
	counter atomic.Uint64
	_       [56]byte
	lo, hi  int // cells [lo, hi)
	// Round the element to two full lines so neighboring partitions'
	// counters never share a line inside the parts slice.
	_ [48]byte
}

// newPartitioned returns a basket with capacity cells, scanning the first
// s.bound on extraction, split into k partitions. Maker validates
// capacity and bound (0 < bound <= capacity) and passes 1 < k <= bound.
func newPartitioned[T any](capacity, k int, s *settings) *Partitioned[T] {
	bound := s.bound
	b := &Partitioned[T]{cells: make([]scell[T], capacity), parts: make([]partition, k), set: s, id: s.open()}
	for i := range b.parts {
		b.parts[i].lo = bound * i / k
		b.parts[i].hi = bound * (i + 1) / k
	}
	return b
}

// Insert publishes x in inserter id's private cell, exactly like the
// scalable basket.
//
//lf:hotpath
func (b *Partitioned[T]) Insert(id int, x T) bool {
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

// Extract claims indices from a random home partition, falling over to
// the others only when it is exhausted.
//
//lf:hotpath
func (b *Partitioned[T]) Extract() (T, bool) {
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

func (b *Partitioned[T]) extract() (T, bool) {
	var zero T
	if b.empty.Load() {
		return zero, false
	}
	k := len(b.parts)
	home := int(rand.Uint64N(uint64(k)))
	for off := 0; off < k; off++ {
		p := &b.parts[(home+off)%k]
		n := uint64(p.hi - p.lo)
		for {
			idx := p.counter.Add(1) - 1
			if idx >= n {
				break // partition exhausted; fall over to the next
			}
			if idx == n-1 {
				// We claimed the partition's last index: it is exhausted
				// once this swap lands; account it exactly once.
				if b.exhausted.Add(1) == int64(k) {
					b.empty.Store(true)
					if ev := b.set.ev; ev != nil {
						ev.Event(obs.EvBasketClose, obs.LaneDefault, b.id)
					}
				}
			}
			c := &b.cells[p.lo+int(idx)]
			if c.state.Swap(cellEmpty) == cellFull {
				return c.v, true
			}
		}
	}
	return zero, false
}

// Empty reports the global empty bit; false negatives are allowed.
//
//lf:hotpath
func (b *Partitioned[T]) Empty() bool { return b.empty.Load() }

// ResetOwn returns inserter id's cell to the insertable state. Only legal
// on an unpublished basket.
func (b *Partitioned[T]) ResetOwn(id int) {
	b.cells[id].state.Store(cellInsert)
}

// Reset re-arms a drained basket for reuse: every cell back to the
// insertable state with its value dropped, all partition counters and
// the exhausted count zeroed, empty bit cleared. Only legal on a basket
// no other goroutine can reach (see basket.Resettable).
func (b *Partitioned[T]) Reset() {
	var zero T
	for i := range b.cells {
		c := &b.cells[i]
		c.v = zero
		c.state.Store(cellInsert)
	}
	for i := range b.parts {
		b.parts[i].counter.Store(0)
	}
	b.exhausted.Store(0)
	b.empty.Store(false)
}
