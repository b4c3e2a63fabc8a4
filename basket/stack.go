package basket

import "sync/atomic"

// snode is a Treiber-stack node.
type snode[T any] struct {
	v    T
	next *snode[T]
}

// stackState is the atomically-replaced state of a ClosingStack: the stack
// top plus a closed flag. Replacing whole state records makes the
// (pointer, closed) pair atomic without pointer tagging, which Go's GC
// forbids; the garbage collector absorbs the retired records.
type stackState[T any] struct {
	top    *snode[T]
	closed bool
}

// ClosingStack is a LIFO basket that refuses insertions once any element
// has been extracted. Viewed in the modular framework, this is the basket
// implicit in the original baskets queue, where the first dequeue of a
// basket sets the deleted bit that makes subsequent insertion CASs fail —
// the property that makes the queue linearizable (paper §5.2.2).
type ClosingStack[T any] struct {
	state atomic.Pointer[stackState[T]]
}

// NewClosingStack returns an empty, open stack basket.
func NewClosingStack[T any]() *ClosingStack[T] {
	s := &ClosingStack[T]{}
	s.state.Store(&stackState[T]{})
	return s
}

func (s *ClosingStack[T]) load() *stackState[T] { return s.state.Load() }

// Insert pushes x unless the basket has been closed by an extraction.
// The id parameter is unused; the stack has no per-inserter state.
//
//lf:hotpath
func (s *ClosingStack[T]) Insert(_ int, x T) bool {
	//lint:ignore allocfree the stack basket allocates per push by design: it models the original queue's implicit basket, and no registry entry uses it
	n := &snode[T]{v: x}
	for {
		st := s.load()
		if st.closed {
			return false
		}
		n.next = st.top
		//lint:ignore casloop,allocfree Treiber push: contention is accounted by the enclosing queue's Basket* counters, and the state-record replacement allocates by design (no registry entry uses the stack basket)
		if s.state.CompareAndSwap(st, &stackState[T]{top: n}) {
			return true
		}
	}
}

// Extract pops an element; the first successful extraction closes the
// basket to further insertions.
//
//lf:hotpath
func (s *ClosingStack[T]) Extract() (T, bool) {
	var zero T
	for {
		st := s.load()
		if st.top == nil {
			// Exhausted: close so Empty becomes accurate and inserts stop.
			//lint:ignore casloop,allocfree Treiber pop: contention is accounted by the enclosing queue's Basket* counters, and the state-record replacement allocates by design (no registry entry uses the stack basket)
			if st.closed || s.state.CompareAndSwap(st, &stackState[T]{closed: true}) {
				return zero, false
			}
			continue
		}
		//lint:ignore allocfree state-record replacement allocates by design; no registry entry uses the stack basket
		if s.state.CompareAndSwap(st, &stackState[T]{top: st.top.next, closed: true}) {
			return st.top.v, true
		}
	}
}

// Empty reports whether the basket is closed and drained.
//
//lf:hotpath
func (s *ClosingStack[T]) Empty() bool {
	st := s.load()
	return st.closed && st.top == nil
}

// ResetOwn reopens an unpublished basket by discarding its contents. Only
// legal before the basket is shared.
func (s *ClosingStack[T]) ResetOwn(_ int) {
	s.state.Store(&stackState[T]{})
}
