package sbq

import (
	"sync"
	"testing"
	"testing/quick"
)

// newBasket builds an open basket with n cells and no recorder, as
// newNode does for a queue of n enqueuers.
func newBasket[T any](n int) *basket[T] {
	return &basket[T]{cells: make([]cell[T], n)}
}

func TestScalableInsertExtract(t *testing.T) {
	b := newBasket[int](4)
	if !b.insert(0, 10, nil) {
		t.Fatal("first insert failed")
	}
	if b.insert(0, 11, nil) {
		t.Fatal("second insert into same cell succeeded")
	}
	if !b.insert(3, 30, nil) {
		t.Fatal("insert into cell 3 failed")
	}
	got := map[int]bool{}
	for {
		v, ok := b.extract(nil, nil)
		if !ok {
			break
		}
		got[v] = true
	}
	if len(got) != 2 || !got[10] || !got[30] {
		t.Fatalf("extracted %v", got)
	}
	if !b.empty() {
		t.Fatal("exhausted basket not empty")
	}
}

func TestScalableEmptyBitFastPath(t *testing.T) {
	b := newBasket[int](2)
	b.extract(nil, nil)
	b.extract(nil, nil)
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
	b := newBasket[int](2)
	for {
		if _, ok := b.extract(nil, nil); !ok {
			break
		}
	}
	if b.insert(1, 5, nil) {
		t.Fatal("insert succeeded after its cell was swept")
	}
}

func TestScalableResetOwn(t *testing.T) {
	b := newBasket[int](2)
	b.insert(0, 7, nil)
	b.reset(0)
	if !b.insert(0, 8, nil) {
		t.Fatal("insert after reset failed")
	}
	v, ok := b.extract(nil, nil)
	if !ok || v != 8 {
		t.Fatalf("got %d,%v want 8,true", v, ok)
	}
}

func TestScalableConcurrentNoLossNoDup(t *testing.T) {
	const n = 16
	b := newBasket[int](n)
	var wg sync.WaitGroup
	inserted := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inserted[i] = b.insert(i, 100+i, nil)
		}()
	}
	extracted := make(map[int]int)
	var mu sync.Mutex
	for e := 0; e < 4; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
	wg.Wait()
	// Drain any stragglers.
	for {
		v, ok := b.extract(nil, nil)
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
	// The basket is exhausted now, so every value whose insert linearized
	// before the sweep must be in extracted. (Inserts racing the sweep
	// legitimately fail.)
	for i, ok := range inserted {
		if ok && extracted[100+i] != 1 {
			t.Fatalf("inserted value %d lost", 100+i)
		}
	}
}

// Property: for any interleaving of sequential inserts and extracts, the
// multiset of extracted values is a subset of accepted inserts, with no
// duplicates.
func TestBasketProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		b := newBasket[uint64](8)
		accepted := map[uint64]bool{}
		extracted := map[uint64]bool{}
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				id := int(op/2) % 8
				if b.insert(id, next, nil) {
					accepted[next] = true
				}
				next++
			} else {
				if v, ok := b.extract(nil, nil); ok {
					if extracted[v] || !accepted[v] {
						return false
					}
					extracted[v] = true
				}
			}
		}
		// Drain.
		for {
			v, ok := b.extract(nil, nil)
			if !ok {
				break
			}
			if extracted[v] || !accepted[v] {
				return false
			}
			extracted[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
