package sbq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// newBasket builds the basket of a published node whose linker has placed
// its own element, as newNode and fill do for a queue of bound enqueuers.
// The basket does not know its linker: each join names it.
func newBasket[T any](bound int, own T) *basket[T] {
	b := &basket[T]{cells: make([]cell[T], bound-1)}
	b.fill(own, nil)
	return b
}

// drainBasket extracts until the basket reports a failed extract.
func drainBasket[T comparable](b *basket[T]) map[T]int {
	got := map[T]int{}
	for {
		v, ok := b.extract(nil, nil)
		if !ok {
			return got
		}
		got[v]++
	}
}

func TestScalableInsertExtract(t *testing.T) {
	b := newBasket(4, 10)
	if !b.join(1, 0, 11, nil) {
		t.Fatal("first join failed")
	}
	if b.join(1, 0, 12, nil) {
		t.Fatal("second join into the same cell succeeded")
	}
	if !b.join(3, 0, 30, nil) {
		t.Fatal("join of handle 3 failed")
	}
	got := drainBasket(b)
	if len(got) != 3 || got[10] != 1 || got[11] != 1 || got[30] != 1 {
		t.Fatalf("extracted %v, want 10, 11 and 30 once each", got)
	}
	if !b.empty() {
		t.Fatal("exhausted basket not empty")
	}
}

func TestScalableEmptyBitFastPath(t *testing.T) {
	b := newBasket(2, 7)
	if v, ok := b.extract(nil, nil); !ok || v != 7 {
		t.Fatalf("got %d,%v want 7,true", v, ok)
	}
	if !b.empty() {
		t.Fatal("empty bit not set after exhaustion")
	}
	before := b.counter.Load()
	if _, ok := b.extract(nil, nil); ok {
		t.Fatal("extract from empty basket succeeded")
	}
	if b.counter.Load() != before {
		t.Fatal("extract after empty bit still touched the counter")
	}
}

func TestScalableInsertAfterSweepFails(t *testing.T) {
	b := newBasket(2, 7)
	drainBasket(b)
	if b.join(1, 0, 5, nil) {
		t.Fatal("join succeeded after its cell was swept")
	}
}

// TestScalableJoinCellBijection: for every bound 1-8 and every linker,
// joinCell maps the handles other than the linker one-to-one onto the
// bound-1 joiner cells, so two joiners never share a cell and no cell
// index reaches the own element's.
func TestScalableJoinCellBijection(t *testing.T) {
	for bound := 1; bound <= 8; bound++ {
		for linker := 0; linker < bound; linker++ {
			owner := make([]int, bound-1)
			for i := range owner {
				owner[i] = -1
			}
			for id := 0; id < bound; id++ {
				if id == linker {
					continue
				}
				c := joinCell(id, linker, bound)
				if c < 0 || c >= bound-1 {
					t.Fatalf("bound %d, linker %d: handle %d maps to cell %d, outside 0..%d", bound, linker, id, c, bound-2)
				}
				if owner[c] >= 0 {
					t.Fatalf("bound %d, linker %d: handles %d and %d share cell %d", bound, linker, owner[c], id, c)
				}
				owner[c] = id
			}
		}
	}
}

// TestScalableUnjoinedBasketOneExtract: a basket nobody joined delivers
// its own element in one extract call, at every bound, and is then empty
// with its counter exactly at the bound.
func TestScalableUnjoinedBasketOneExtract(t *testing.T) {
	for bound := 1; bound <= 8; bound++ {
		b := newBasket(bound, 42)
		if v, ok := b.extract(nil, nil); !ok || v != 42 {
			t.Fatalf("bound %d: got %d,%v want 42,true", bound, v, ok)
		}
		if !b.empty() {
			t.Fatalf("bound %d: basket not empty after its own element came out", bound)
		}
		if got := b.counter.Load(); got != uint64(bound) {
			t.Fatalf("bound %d: counter %d after one extract, want %d", bound, got, bound)
		}
	}
}

// TestScalableConcurrentNoLossNoDup publishes a basket holding its own
// element through an atomic pointer, as the linking CAS publishes a node,
// and races bound-1 joiners against 4 extractors: every accepted value
// comes out exactly once, the own element always does, and no failed
// join ever does.
func TestScalableConcurrentNoLossNoDup(t *testing.T) {
	const bound, extractors, own = 16, 4, 1
	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	for r := 0; r < rounds; r++ {
		var pub atomic.Pointer[basket[int]]
		load := func() *basket[int] {
			for {
				if b := pub.Load(); b != nil {
					return b
				}
				runtime.Gosched()
			}
		}
		var wg sync.WaitGroup
		joined := make([]bool, bound)
		for id := 1; id < bound; id++ {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				joined[id] = load().join(id, 0, 100+id, nil)
			}()
		}
		extracted := make(map[int]int)
		var mu sync.Mutex
		for e := 0; e < extractors; e++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := load()
				for {
					v, ok := b.extract(nil, nil)
					if !ok {
						return
					}
					mu.Lock()
					extracted[v]++
					mu.Unlock()
				}
			}()
		}
		b := newBasket(bound, own)
		pub.Store(b)
		wg.Wait()
		// Every index is claimed once the extractors stop, so a straggler
		// extract finds nothing.
		if _, ok := b.extract(nil, nil); ok {
			t.Fatalf("round %d: extract succeeded after the extractors drained the basket", r)
		}
		if extracted[own] != 1 {
			t.Fatalf("round %d: own element extracted %d times, want 1", r, extracted[own])
		}
		for v, c := range extracted {
			if c != 1 {
				t.Fatalf("round %d: value %d extracted %d times", r, v, c)
			}
			if v != own && !joined[v-100] {
				t.Fatalf("round %d: value %d came out of a failed join", r, v)
			}
		}
		for id := 1; id < bound; id++ {
			if joined[id] && extracted[100+id] != 1 {
				t.Fatalf("round %d: joined value %d lost", r, 100+id)
			}
		}
	}
}

// Property: for any interleaving of sequential joins and extracts, the
// multiset of extracted values is a subset of the own element and the
// accepted joins, with no duplicates, and a drain always yields the own
// element.
func TestBasketProperty(t *testing.T) {
	const bound, own = 8, 0
	f := func(ops []uint8) bool {
		b := newBasket[uint64](bound, own)
		accepted := map[uint64]bool{own: true}
		extracted := map[uint64]bool{}
		take := func(v uint64) bool {
			if extracted[v] || !accepted[v] {
				return false
			}
			extracted[v] = true
			return true
		}
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				id := 1 + int(op/2)%(bound-1) // every handle but the linker, 0
				if b.join(id, 0, next, nil) {
					accepted[next] = true
				}
				next++
			} else if v, ok := b.extract(nil, nil); ok && !take(v) {
				return false
			}
		}
		for v, c := range drainBasket(b) {
			if c != 1 || !take(v) {
				return false
			}
		}
		return extracted[own]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
