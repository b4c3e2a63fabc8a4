package basket

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestPartitionedInsertExtract(t *testing.T) {
	b := partitioned[int](8, 8, 4)
	for i := 0; i < 8; i += 2 {
		if !b.Insert(i, 100+i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	got := map[int]bool{}
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		if got[v] {
			t.Fatalf("duplicate %d", v)
		}
		got[v] = true
	}
	if len(got) != 4 {
		t.Fatalf("extracted %d values, want 4", len(got))
	}
	if !b.Empty() {
		t.Fatal("exhausted basket not Empty")
	}
	if b.Insert(1, 1) {
		t.Fatal("insert after exhaustion succeeded")
	}
}

func TestPartitionedEmptyAfterExhaustionOnly(t *testing.T) {
	b := partitioned[int](6, 6, 3)
	if b.Empty() {
		t.Fatal("fresh basket Empty")
	}
	// Drain all partitions.
	for {
		if _, ok := b.Extract(); !ok {
			if b.Empty() {
				break
			}
			// Extract may fail while other partitions remain; keep going.
		}
	}
	if _, ok := b.Extract(); ok {
		t.Fatal("extract after Empty succeeded")
	}
}

func TestPartitionedKClamping(t *testing.T) {
	b := partitioned[int](4, 4, 100) // k clamped to the bound, 4
	if len(b.parts) != 4 {
		t.Fatalf("k = %d, want 4", len(b.parts))
	}
	if b := partitioned[int](4, 2, 8); len(b.parts) != 2 { // clamped to bound 2
		t.Fatalf("k = %d, want 2", len(b.parts))
	}
	// k <= 1 selects the single-counter scalable basket.
	for _, k := range []int{-1, 0, 1} {
		if _, ok := New[int](WithCapacity(4), WithPartitions(k)).(*Scalable[int]); !ok {
			t.Errorf("WithPartitions(%d) did not build a Scalable basket", k)
		}
	}
}

func TestPartitionedPartitionBounds(t *testing.T) {
	b := partitioned[int](10, 10, 3)
	covered := make([]bool, 10)
	for pi := range b.parts {
		p := &b.parts[pi]
		for i := p.lo; i < p.hi; i++ {
			if covered[i] {
				t.Fatalf("cell %d in two partitions", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("cell %d uncovered", i)
		}
	}
}

func TestPartitionedBoundSmallerThanCapacity(t *testing.T) {
	b := partitioned[int](16, 4, 2)
	b.Insert(1, 11)
	n := 0
	for {
		if _, ok := b.Extract(); !ok && b.Empty() {
			break
		} else if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("extracted %d, want 1", n)
	}
}

func TestPartitionedResetOwn(t *testing.T) {
	b := partitioned[int](4, 4, 2)
	b.Insert(2, 5)
	b.ResetOwn(2)
	if !b.Insert(2, 6) {
		t.Fatal("insert after reset failed")
	}
}

func TestPartitionedConcurrent(t *testing.T) {
	const n = 32
	b := partitioned[int](n, n, 8)
	var wg sync.WaitGroup
	inserted := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inserted[i] = b.Insert(i, 1000+i)
		}()
	}
	var mu sync.Mutex
	extracted := map[int]int{}
	for e := 0; e < 8; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := b.Extract()
				if !ok {
					if b.Empty() {
						return
					}
					continue
				}
				mu.Lock()
				extracted[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for v, c := range extracted {
		if c != 1 {
			t.Fatalf("value %d extracted %d times", v, c)
		}
	}
	for i, ok := range inserted {
		if ok && extracted[1000+i] != 1 {
			t.Fatalf("inserted value %d lost", 1000+i)
		}
	}
}

// Property: once Empty returns true, Extract never again succeeds — the
// invariant SBQ's linearizability rests on.
func TestPartitionedEmptyMonotoneProperty(t *testing.T) {
	f := func(ops []uint8, kRaw uint8) bool {
		k := int(kRaw)%4 + 1
		b := New[uint64](WithCapacity(8), WithPartitions(k))
		sawEmpty := false
		next := uint64(1)
		for _, op := range ops {
			if op%3 == 0 {
				b.Insert(int(op/3)%8, next)
				next++
			} else {
				_, ok := b.Extract()
				if ok && sawEmpty {
					return false
				}
			}
			if b.Empty() {
				sawEmpty = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
