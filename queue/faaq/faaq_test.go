package faaq_test

import (
	"testing"
	"unsafe"

	"repro/queue"
	"repro/queue/faaq"
	"repro/queue/queuetest"
)

func factory() queuetest.Factory {
	return queuetest.Shared(func(int) queue.Queue[uint64] { return faaq.New[uint64]() })
}

func TestConformance(t *testing.T) {
	queuetest.RunAll(t, factory())
}

// TestQueueWholeCacheLines: a Queue that is a whole number of 64 B cache
// lines starts every allocation on a line, so neighbouring shards' queues
// never share one (see the tail pad on Queue).
func TestQueueWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("Queue's pads assume 8-byte pointers")
	}
	if size := unsafe.Sizeof(faaq.Queue[uint64]{}); size%64 != 0 {
		t.Fatalf("Queue is %d B, not a whole number of 64 B cache lines", size)
	}
}

func TestSegmentBoundaryCrossing(t *testing.T) {
	q := faaq.New[int]()
	n := faaq.SegSize*3 + 17
	for i := 0; i < n; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("index %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestRefillAfterDrain(t *testing.T) {
	q := faaq.New[int]()
	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			q.Enqueue(round*100 + i)
		}
		for i := 0; i < 100; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round*100+i {
				t.Fatalf("round %d index %d: got %d,%v", round, i, v, ok)
			}
		}
	}
}
