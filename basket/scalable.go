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

// pad keeps adjacent cells off each other's cache lines; the paper's C
// implementation packs them, but extraction sweeps the array anyway and
// insertion is the hot synchronization-free path.
type scell[T any] struct {
	state atomic.Uint32
	v     T
	_     [40]byte
}

// Scalable is the paper's scalable basket (Algorithms 8-9): an array with
// one private cell per inserter, an extraction counter scanned with FAA,
// and an empty bit set by the extractor that claims the last index.
type Scalable[T any] struct {
	cells []scell[T]
	_     [40]byte
	//lf:contended every extraction FAAs the scan counter; keep it off the
	// cells header line that all inserters read
	counter atomic.Uint64
	_       [56]byte
	empty   atomic.Bool
	bound   int          // extraction scans cells[0:bound] (the active inserters)
	rec     obs.Recorder // nil unless telemetry is attached (WithRecorder)
	// ev/id carry the basket's lifecycle timeline: open at construction,
	// close when the empty bit is set (nil/0 unless the recorder is a
	// flight-recorder collector — see New in options.go).
	ev obs.EventRecorder
	id uint64
}

// newScalable returns a basket with capacity cells, scanning only the
// first bound cells on extraction. The paper's evaluation fixes capacity
// at the machine's thread count and sets bound to the live enqueuer count
// (§6.1). New validates both: 0 < bound <= capacity.
func newScalable[T any](capacity, bound int) *Scalable[T] {
	return &Scalable[T]{cells: make([]scell[T], capacity), bound: bound}
}

// Insert publishes x in inserter id's private cell: synchronization-free
// in the sense that distinct inserters never contend with each other.
//
//lf:hotpath
func (b *Scalable[T]) Insert(id int, x T) bool {
	c := &b.cells[id]
	if c.state.Load() != cellInsert {
		if r := b.rec; r != nil {
			r.Inc(obs.BasketInsertFails)
		}
		return false
	}
	c.v = x
	ok := c.state.CompareAndSwap(cellInsert, cellFull)
	if r := b.rec; r != nil {
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
	if r := b.rec; r != nil {
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
	for {
		idx := b.counter.Add(1) - 1
		if idx >= uint64(b.bound) {
			return zero, false
		}
		if idx == uint64(b.bound)-1 {
			b.empty.Store(true)
			if ev := b.ev; ev != nil {
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
