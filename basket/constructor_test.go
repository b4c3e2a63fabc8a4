package basket

import "testing"

// These tests keep the names they had when each basket kind had its own
// positional constructor (NewScalable, NewPartitioned). New replaced both;
// the tests pin the same behavior through it.

func TestDeprecatedNewScalable(t *testing.T) {
	b, ok := New[int](WithCapacity(4), WithBound(2)).(*Scalable[int])
	if !ok {
		t.Fatal("New without WithPartitions did not build a Scalable basket")
	}
	for id := 0; id < 4; id++ {
		if !b.Insert(id, id) {
			t.Fatalf("Insert(%d) refused on a fresh basket", id)
		}
	}
	// bound=2: extraction sweeps only cells [0,2).
	seen := map[int]bool{}
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		seen[v] = true
	}
	if len(seen) != 2 || !seen[0] || !seen[1] {
		t.Fatalf("bound=2 extraction returned %v, want {0,1}", seen)
	}
}

func TestDeprecatedNewScalableBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithCapacity(-1)) did not panic")
		}
	}()
	New[int](WithCapacity(-1))
}

func TestDeprecatedNewPartitioned(t *testing.T) {
	b, ok := New[int](WithCapacity(6), WithBound(6), WithPartitions(3)).(*Partitioned[int])
	if !ok {
		t.Fatal("WithPartitions(3) did not build a Partitioned basket")
	}
	if got := len(b.parts); got != 3 {
		t.Fatalf("built %d partitions, want 3", got)
	}
	for id := 0; id < 6; id++ {
		if !b.Insert(id, id) {
			t.Fatalf("Insert(%d) refused on a fresh basket", id)
		}
	}
	seen := map[int]bool{}
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Fatalf("extracted %d of 6 elements", len(seen))
	}
	if !b.Empty() {
		t.Fatal("drained partitioned basket not Empty")
	}
}

func TestDeprecatedNewPartitionedClampsK(t *testing.T) {
	// k is clamped to [1, bound]; one partition is the single-counter
	// scalable basket.
	if _, ok := New[int](WithCapacity(4), WithBound(4), WithPartitions(0)).(*Scalable[int]); !ok {
		t.Error("k=0 did not build a single-counter basket")
	}
	if got := len(partitioned[int](4, 2, 8).parts); got != 2 {
		t.Errorf("k=8,bound=2 built %d partitions, want 2", got)
	}
}

func TestDeprecatedNewPartitionedBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithCapacity(-1), WithPartitions(2)) did not panic")
		}
	}()
	New[int](WithCapacity(-1), WithPartitions(2))
}
