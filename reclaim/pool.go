// Package reclaim provides the epoch-guarded freelists behind the native
// queues' pooled-node mode (sbq.WithNodePool, faaq.WithNodePool), in the
// index-based style the paper adapts from Yang & Mellor-Crummey
// (Algorithm 7).
//
// Go's garbage collector already prevents use-after-free, but high-churn
// structures benefit from recycling nodes through freelists, and
// recycling re-creates the ABA hazards of manual memory management. A
// Guard is one announcement slot; an Epoch is the registry of guards one
// structure shares; a Pool is a per-P freelist (sync.Pool) whose retired
// items wait until no in-flight operation can still touch them. The
// simulated track implements Algorithm 7 verbatim inside SBQ
// (repro/internal/simqueue), where memory really is manual.
//
// The scheme announces *stamps* (monotonically increasing uint64s
// carried by the protected items) rather than pointers, which keeps one
// announcement enough to protect an item and everything reachable
// forward of it: every queue orders its items so that anything a
// traversal can reach from an item carries a stamp >= that item's.
// Stamps are structural — sbq stamps a node with its index, faaq a
// segment with its id — so the Epoch keeps no stamp source of its own.
// A retired item is reusable once its stamp lies strictly below every
// active announcement.
//
// The announce-and-verify protocol at a source pointer src is:
//
//	for {
//		t := src.Load()
//		g.Protect(t.stamp.Load())   // stamp fields are atomic
//		if src.Load() == t {
//			break                   // t (and its successors) pinned
//		}
//	}
//
// Stamp fields must be atomic because a stale loader may read a node
// the pool has already handed to a new owner; the value it reads is
// then either the old stamp (strictly smaller — the announcement is
// merely more conservative) or the new one (the verify re-load only
// passes if the node really is installed at src again, making the
// announcement exact). Either way the protocol over-protects, never
// under-protects.
//
// Like all epoch schemes, reclamation stalls (but safety holds) if an
// operation parks forever between Protect and Release.
package reclaim

import (
	"math"
	"sync"
	"sync/atomic"
)

// NoStamp is the announcement value of an inactive guard: larger than
// every real stamp, so it never constrains collection.
const NoStamp = math.MaxUint64

// collectEvery is the retire-count period of the amortized collection
// trigger: one list scan per this many retires.
const collectEvery = 64

// Guard is one announcement slot. Guards are acquired per operation
// from an Epoch, announce at most one stamp at a time, and occupy a
// full cache line so announcements do not false-share.
type Guard struct {
	//lf:contended
	stamp atomic.Uint64
	_     [56]byte
}

// Protect announces stamp. Callers follow the announce-and-verify
// protocol documented at the top of this file.
//
//lf:hotpath
func (g *Guard) Protect(stamp uint64) { g.stamp.Store(stamp) }

// Release clears the announcement.
//
//lf:hotpath
func (g *Guard) Release() { g.stamp.Store(NoStamp) }

// Epoch is the shared state of one pooled data structure: the registry
// of every guard ever issued (append-only; MinStamp scans it lock-free)
// and a freelist of inactive guards. Every Pool over one Epoch must draw
// its stamps from one order.
type Epoch struct {
	// guards is copy-on-write: newGuard swaps in an extended copy under
	// mu; MinStamp loads the current slice without locking.
	guards atomic.Pointer[[]*Guard]
	mu     sync.Mutex
	gpool  sync.Pool
}

// NewEpoch creates an empty epoch domain.
func NewEpoch() *Epoch {
	e := &Epoch{}
	e.guards.Store(new([]*Guard))
	return e
}

// Acquire returns an inactive guard: a freelist hit on the steady
// state, a registered allocation on first use.
//
//lf:hotpath
func (e *Epoch) Acquire() *Guard {
	if g, ok := e.gpool.Get().(*Guard); ok {
		return g
	}
	return e.newGuard()
}

// Release deactivates g and returns it to the freelist.
//
//lf:hotpath
func (e *Epoch) Release(g *Guard) {
	g.Release()
	e.gpool.Put(g)
}

// newGuard allocates and registers a guard. The registry only ever
// grows; guards dropped by the freelist stay registered but announce
// NoStamp, so they cost MinStamp one load each and nothing else.
//
//lf:coldpath
func (e *Epoch) newGuard() *Guard {
	g := &Guard{}
	g.stamp.Store(NoStamp)
	e.mu.Lock()
	old := *e.guards.Load()
	gs := make([]*Guard, len(old)+1)
	copy(gs, old)
	gs[len(old)] = g
	e.guards.Store(&gs)
	e.mu.Unlock()
	return g
}

// MinStamp returns the smallest announced stamp, or NoStamp when no
// guard is active.
//
//lf:hotpath
func (e *Epoch) MinStamp() uint64 {
	min := uint64(NoStamp)
	for _, g := range *e.guards.Load() {
		if s := g.stamp.Load(); s < min {
			min = s
		}
	}
	return min
}

// Pool is an epoch-guarded freelist of *T. Get pops a recycled item or
// falls back to the constructor; Retire defers an item until every
// announcement precedes its stamp, then resets and recycles it. The
// steady state allocates nothing: items, and the link records the
// retired list is threaded through, both cycle through sync.Pool (Go's
// per-P freelist).
type Pool[T any] struct {
	epoch *Epoch
	newFn func() *T
	reset func(*T)

	free  sync.Pool
	links sync.Pool

	retired    atomic.Pointer[plink[T]]
	retires    atomic.Uint64
	collecting atomic.Bool

	// Freed counts items recycled through the freelist, for tests and
	// observability.
	Freed atomic.Uint64
}

type plink[T any] struct {
	n     *T
	stamp uint64
	next  *plink[T]
}

// NewPool creates a pool over e. newFn constructs fresh items on
// freelist misses; reset (optional) scrubs an item before reuse.
func NewPool[T any](e *Epoch, newFn func() *T, reset func(*T)) *Pool[T] {
	if e == nil {
		panic("reclaim: NewPool requires an epoch")
	}
	if newFn == nil {
		panic("reclaim: NewPool requires a constructor")
	}
	return &Pool[T]{epoch: e, newFn: newFn, reset: reset}
}

// Get returns a recycled or fresh item.
//
//lf:hotpath
func (p *Pool[T]) Get() *T {
	if n, ok := p.free.Get().(*T); ok {
		return n
	}
	return p.newItem()
}

//lf:coldpath
func (p *Pool[T]) newItem() *T { return p.newFn() }

// Put recycles an item that was NEVER published: one obtained from Get
// whose installation lost its race, so no other thread can hold a
// reference. Published items must go through Retire instead.
//
//lf:hotpath
func (p *Pool[T]) Put(n *T) {
	if p.reset != nil {
		p.reset(n)
	}
	p.free.Put(n)
}

// Retire defers item n, which carries the given stamp, for recycling
// once safe. The caller must guarantee n is unreachable to new
// announce-and-verify loops (e.g. the queue head moved past it).
// Every collectEvery-th retire triggers a collection, amortizing the
// scan without a background goroutine.
//
//lf:hotpath
func (p *Pool[T]) Retire(stamp uint64, n *T) {
	l, ok := p.links.Get().(*plink[T])
	if !ok {
		l = p.newLink()
	}
	l.n, l.stamp = n, stamp
	for {
		head := p.retired.Load()
		l.next = head
		//lint:ignore casloop Treiber push onto the retired list; amortized off the queues' §3-accounted word
		if p.retired.CompareAndSwap(head, l) {
			break
		}
	}
	if p.retires.Add(1)%collectEvery == 0 {
		p.Collect()
	}
}

//lf:coldpath
func (p *Pool[T]) newLink() *plink[T] { return new(plink[T]) }

// Collect recycles every retired item whose stamp lies strictly below
// the minimum announcement. At most one collector runs at a time;
// survivors are pushed back for the next pass. Returns the number of
// items recycled.
func (p *Pool[T]) Collect() int {
	if !p.collecting.CompareAndSwap(false, true) {
		return 0
	}
	defer p.collecting.Store(false)

	head := p.retired.Swap(nil)
	if head == nil {
		return 0
	}
	min := p.epoch.MinStamp()
	freed := 0
	var survivors *plink[T]
	for l := head; l != nil; {
		next := l.next
		if l.stamp < min {
			if p.reset != nil {
				p.reset(l.n)
			}
			p.free.Put(l.n)
			l.n = nil
			p.links.Put(l)
			freed++
		} else {
			l.next = survivors
			survivors = l
		}
		l = next
	}
	for survivors != nil {
		next := survivors.next
		for {
			h := p.retired.Load()
			survivors.next = h
			//lint:ignore casloop Treiber push-back of survivors; amortized off the queues' §3-accounted word
			if p.retired.CompareAndSwap(h, survivors) {
				break
			}
		}
		survivors = next
	}
	p.Freed.Add(uint64(freed))
	return freed
}
