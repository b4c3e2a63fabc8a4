package sbq_test

import (
	"sync"
	"testing"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/txcas"
	"repro/queue"
	"repro/queue/queuetest"
	"repro/queue/sbq"
)

// factory hands each producer goroutine its own handle, as SBQ requires.
func factory(mk func(enqueuers int) *sbq.Queue[uint64]) queuetest.Factory {
	return func(producers int) (func(int) queue.Queue[uint64], func(int) queue.Queue[uint64]) {
		q := mk(producers)
		handles := make([]queue.Queue[uint64], producers)
		var mu sync.Mutex
		prod := func(i int) queue.Queue[uint64] {
			mu.Lock()
			defer mu.Unlock()
			if handles[i] == nil {
				handles[i] = q.NewHandle()
			}
			return handles[i]
		}
		cons := func(int) queue.Queue[uint64] { return queueView[uint64]{q} }
		return prod, cons
	}
}

// queueView adapts the consumer side (Dequeue-only) to queue.Queue.
type queueView[T any] struct{ q *sbq.Queue[T] }

func (v queueView[T]) Enqueue(T) { panic("consumer view cannot enqueue") }
func (v queueView[T]) Dequeue() (T, bool) {
	return v.q.Dequeue()
}

// drain dequeues until empty and checks exactly want elements came out.
func drain(t *testing.T, q *sbq.Queue[uint64], want int) {
	t.Helper()
	got := 0
	for {
		if _, ok := q.Dequeue(); !ok {
			break
		}
		got++
	}
	if got != want {
		t.Fatalf("drained %d of %d elements", got, want)
	}
}

func TestConformancePlainCAS(t *testing.T) {
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		return sbq.New[uint64](sbq.WithEnqueuers(e))
	}))
}

func TestConformanceDelayedCAS(t *testing.T) {
	if testing.Short() {
		t.Skip("delayed CAS is slow by design")
	}
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		// 500 cycles = 200ns at the policies' 2.5 cycles/ns.
		return sbq.New[uint64](sbq.WithEnqueuers(e),
			sbq.WithTxCAS(txcas.WithPolicy(policy.DelayedCAS{Delay: 500})))
	}))
}

func TestSequentialFIFO(t *testing.T) {
	q := sbq.New[int](sbq.WithEnqueuers(1))
	h := q.NewHandle()
	for i := 0; i < 500; i++ {
		h.Enqueue(i)
	}
	for i := 0; i < 500; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("index %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("drained queue not empty")
	}
}

func TestHandleLimit(t *testing.T) {
	q := sbq.New[int](sbq.WithEnqueuers(1))
	q.NewHandle()
	defer func() {
		if recover() == nil {
			t.Error("excess handle did not panic")
		}
	}()
	q.NewHandle()
}

// TestBadEnqueuersPanics covers every explicit non-positive count,
// including -1, which must not read as "unset".
func TestBadEnqueuersPanics(t *testing.T) {
	for _, n := range []int{0, -1, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithEnqueuers(%d) did not panic", n)
				}
			}()
			sbq.New[int](sbq.WithEnqueuers(n))
		}()
	}
}

// TestBasketLifecycleBalanced: every basket a queue opens on the flight
// recorder closes once the queue is drained, so sbqtrace sees no basket
// that never closes. The baskets are the sentinel's and the ten appended
// nodes'.
func TestBasketLifecycleBalanced(t *testing.T) {
	c := trace.New()
	q := sbq.New[uint64](sbq.WithEnqueuers(1), sbq.WithRecorder(obs.NewWithEvents(c)))
	h := q.NewHandle()
	for i := 0; i < 10; i++ {
		h.Enqueue(uint64(i))
	}
	drain(t, q, 10)
	opens, closes := 0, 0
	for _, e := range c.Snapshot().Events {
		switch e.Kind {
		case obs.EvBasketOpen:
			opens++
		case obs.EvBasketClose:
			closes++
		}
	}
	if opens != 11 || closes != 11 {
		t.Fatalf("queue recorded %d basket opens and %d closes, want 11 and 11", opens, closes)
	}
}

func TestNodeReuseKeepsElements(t *testing.T) {
	// Hammer one producer against one consumer so failed appends and node
	// reuse happen, and verify no element is lost or duplicated.
	q := sbq.New[uint64](sbq.WithEnqueuers(2))
	h1, h2 := q.NewHandle(), q.NewHandle()
	const per = 5000
	var wg sync.WaitGroup
	for i, h := range []*sbq.Handle[uint64]{h1, h2} {
		i, h := i, h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				h.Enqueue(uint64(i+1)<<32 | uint64(k))
			}
		}()
	}
	seen := make(map[uint64]bool, 2*per)
	var mu sync.Mutex
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			for got < per {
				if v, ok := q.Dequeue(); ok {
					mu.Lock()
					if seen[v] {
						t.Errorf("duplicate %#x", v)
					}
					seen[v] = true
					mu.Unlock()
					got++
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != 2*per {
		t.Fatalf("saw %d of %d elements", len(seen), 2*per)
	}
}
