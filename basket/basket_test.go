package basket

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestScalableInsertExtract(t *testing.T) {
	b := scalable[int](4, 4)
	if !b.Insert(0, 10) {
		t.Fatal("first insert failed")
	}
	if b.Insert(0, 11) {
		t.Fatal("second insert into same cell succeeded")
	}
	if !b.Insert(3, 30) {
		t.Fatal("insert into cell 3 failed")
	}
	got := map[int]bool{}
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		got[v] = true
	}
	if len(got) != 2 || !got[10] || !got[30] {
		t.Fatalf("extracted %v", got)
	}
	if !b.Empty() {
		t.Fatal("exhausted basket not empty")
	}
}

func TestScalableEmptyBitFastPath(t *testing.T) {
	b := scalable[int](2, 2)
	b.Extract()
	b.Extract()
	if !b.Empty() {
		t.Fatal("empty bit not set after exhaustion")
	}
	before := b.counter.Load()
	if _, ok := b.Extract(); ok {
		t.Fatal("extract from empty basket succeeded")
	}
	if b.counter.Load() != before {
		t.Fatal("extract after empty bit still touched the counter")
	}
}

func TestScalableInsertAfterSweepFails(t *testing.T) {
	b := scalable[int](2, 2)
	for {
		if _, ok := b.Extract(); !ok {
			break
		}
	}
	if b.Insert(1, 5) {
		t.Fatal("insert succeeded after its cell was swept")
	}
}

func TestScalableResetOwn(t *testing.T) {
	b := scalable[int](2, 2)
	b.Insert(0, 7)
	b.ResetOwn(0)
	if !b.Insert(0, 8) {
		t.Fatal("insert after ResetOwn failed")
	}
	v, ok := b.Extract()
	if !ok || v != 8 {
		t.Fatalf("got %d,%v want 8,true", v, ok)
	}
}

func TestScalableBound(t *testing.T) {
	// capacity 8 but only 3 active inserters: extraction must stop at 3.
	b := scalable[int](8, 3)
	b.Insert(1, 11)
	n := 0
	for {
		if _, ok := b.Extract(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("extracted %d values, want 1", n)
	}
	if !b.Empty() {
		t.Fatal("bound-exhausted basket not empty")
	}
}

// scalable and partitioned build baskets through New and return the
// concrete type a test inspects.
func scalable[T any](capacity, bound int) *Scalable[T] {
	return New[T](WithCapacity(capacity), WithBound(bound)).(*Scalable[T])
}

func partitioned[T any](capacity, bound, k int) *Partitioned[T] {
	return New[T](WithCapacity(capacity), WithBound(bound), WithPartitions(k)).(*Partitioned[T])
}

// TestScalableBadCapacityPanics: an explicit non-positive capacity panics
// in New for both basket kinds (zero selects the GOMAXPROCS default).
func TestScalableBadCapacityPanics(t *testing.T) {
	for _, k := range []int{0, 2} {
		for _, capacity := range []int{-1, -5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("New(capacity %d, partitions %d) did not panic", capacity, k)
					}
				}()
				New[int](WithCapacity(capacity), WithPartitions(k))
			}()
		}
	}
}

// TestNewClampsBound: out-of-range bounds fall back to the capacity, for
// both basket kinds; the bound lives in the settings record their Maker
// shares.
func TestNewClampsBound(t *testing.T) {
	for _, bound := range []int{0, -1, 99} {
		if b := scalable[int](3, bound); b.set.bound != 3 {
			t.Errorf("scalable bound %d: got %d, want 3", bound, b.set.bound)
		}
		if b := partitioned[int](3, bound, 2); b.set.bound != 3 {
			t.Errorf("partitioned bound %d: got %d, want 3", bound, b.set.bound)
		}
	}
}

func TestScalableConcurrentNoLossNoDup(t *testing.T) {
	const n = 16
	b := scalable[int](n, n)
	var wg sync.WaitGroup
	inserted := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inserted[i] = b.Insert(i, 100+i)
		}()
	}
	extracted := make(map[int]int)
	var mu sync.Mutex
	for e := 0; e < 4; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := b.Extract()
				if !ok {
					return
				}
				mu.Lock()
				extracted[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Drain any stragglers.
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		extracted[v]++
	}
	for v, c := range extracted {
		if c != 1 {
			t.Fatalf("value %d extracted %d times", v, c)
		}
	}
	// Every successfully inserted value must be extracted or still be
	// extractable... the basket is exhausted now, so every inserted value
	// whose insert linearized before the sweep must be in extracted.
	// (Inserts racing the sweep legitimately fail.)
	for i, ok := range inserted {
		if ok && extracted[100+i] != 1 {
			t.Fatalf("inserted value %d lost", 100+i)
		}
	}
}

func TestClosingStackLIFO(t *testing.T) {
	s := NewClosingStack[int]()
	s.Insert(0, 1)
	s.Insert(0, 2)
	v, ok := s.Extract()
	if !ok || v != 2 {
		t.Fatalf("got %d,%v want 2,true (LIFO)", v, ok)
	}
	// Closed after first extraction.
	if s.Insert(0, 3) {
		t.Fatal("insert succeeded after extraction closed the basket")
	}
	v, ok = s.Extract()
	if !ok || v != 1 {
		t.Fatalf("got %d,%v want 1,true", v, ok)
	}
	if _, ok := s.Extract(); ok {
		t.Fatal("extract from drained stack succeeded")
	}
	if !s.Empty() {
		t.Fatal("drained closed stack not Empty")
	}
}

func TestClosingStackEmptyExtractCloses(t *testing.T) {
	s := NewClosingStack[int]()
	if _, ok := s.Extract(); ok {
		t.Fatal("extract from fresh stack succeeded")
	}
	if s.Insert(0, 1) {
		t.Fatal("insert succeeded after an extraction attempt closed the basket")
	}
}

func TestClosingStackResetOwn(t *testing.T) {
	s := NewClosingStack[int]()
	s.Insert(0, 1)
	s.Extract() // closes
	s.ResetOwn(0)
	if !s.Insert(0, 2) {
		t.Fatal("insert after reset failed")
	}
}

func TestClosingStackConcurrent(t *testing.T) {
	s := NewClosingStack[int]()
	var wg sync.WaitGroup
	accepted := make([]bool, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			accepted[i] = s.Insert(i, i)
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for {
		v, ok := s.Extract()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	for i, ok := range accepted {
		if ok && !seen[i] {
			t.Fatalf("accepted value %d lost", i)
		}
		if !ok && seen[i] {
			t.Fatalf("rejected value %d appeared", i)
		}
	}
}

// Property: for any interleaving of sequential inserts and extracts, the
// multiset of extracted values is a subset of accepted inserts, with no
// duplicates (both implementations).
func TestBasketProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		for _, mk := range []func() Basket[uint64]{
			func() Basket[uint64] { return scalable[uint64](8, 8) },
			func() Basket[uint64] { return NewClosingStack[uint64]() },
		} {
			b := mk()
			accepted := map[uint64]bool{}
			extracted := map[uint64]bool{}
			next := uint64(1)
			for _, op := range ops {
				if op%2 == 0 {
					id := int(op/2) % 8
					if b.Insert(id, next) {
						accepted[next] = true
					}
					next++
				} else {
					if v, ok := b.Extract(); ok {
						if extracted[v] || !accepted[v] {
							return false
						}
						extracted[v] = true
					}
				}
			}
			// Drain.
			for {
				v, ok := b.Extract()
				if !ok {
					break
				}
				if extracted[v] || !accepted[v] {
					return false
				}
				extracted[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
