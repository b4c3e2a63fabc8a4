package reclaim_test

// -race stress test of the pooled reuse pattern: a Michael-Scott queue
// whose nodes carry structural stamps (each node's stamp is one past its
// predecessor's) under announce-and-verify, the discipline sbq and faaq
// use in their WithNodePool mode. Concurrent producers and consumers
// drive it the way those queues drive reclaim. The race detector proves
// reuse never overlaps a protected reader; the poison/exactly-once checks
// prove the epoch ordering itself.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/reclaim"
)

type snode struct {
	stamp atomic.Uint64
	v     uint64
	next  atomic.Pointer[snode]
	// pooled marks nodes sitting in the freelist; readers observing a
	// poisoned node under protection indicate a reclamation bug.
	pooled atomic.Bool
}

type pooledMSQ struct {
	epoch *reclaim.Epoch
	pool  *reclaim.Pool[snode]
	head  atomic.Pointer[snode]
	tail  atomic.Pointer[snode]
}

func newPooledMSQ() *pooledMSQ {
	e := reclaim.NewEpoch()
	q := &pooledMSQ{
		epoch: e,
		pool:  reclaim.NewPool(e, func() *snode { return new(snode) }, func(n *snode) { n.pooled.Store(true) }),
	}
	sentinel := new(snode)
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	return q
}

// protect runs the announce-and-verify loop against src.
func protect(g *reclaim.Guard, src *atomic.Pointer[snode]) *snode {
	for {
		n := src.Load()
		g.Protect(n.stamp.Load())
		if src.Load() == n {
			return n
		}
	}
}

func (q *pooledMSQ) enqueue(v uint64) bool {
	n := q.pool.Get()
	wasPooled := n.pooled.Swap(false)
	_ = wasPooled
	n.v = v
	n.next.Store(nil)
	g := q.epoch.Acquire()
	defer q.epoch.Release(g)
	for {
		t := protect(g, &q.tail)
		n.stamp.Store(t.stamp.Load() + 1)
		next := t.next.Load()
		if next != nil {
			//lint:ignore casloop test-harness MSQ; helping swing a lagging tail, failure implies another's progress
			q.tail.CompareAndSwap(t, next)
			continue
		}
		if t.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(t, n)
			return true
		}
	}
}

func (q *pooledMSQ) dequeue() (uint64, bool, bool) {
	g := q.epoch.Acquire()
	defer q.epoch.Release(g)
	for {
		h := protect(g, &q.head)
		next := h.next.Load()
		if next == nil {
			return 0, false, false
		}
		if t := q.tail.Load(); h == t {
			//lint:ignore casloop test-harness MSQ; helping swing a lagging tail, failure implies another's progress
			q.tail.CompareAndSwap(t, next)
			continue
		}
		poisoned := next.pooled.Load() // must be false while protected
		v := next.v
		if q.head.CompareAndSwap(h, next) {
			stamp := h.stamp.Load()
			q.pool.Retire(stamp, h)
			return v, true, poisoned
		}
	}
}

func TestPooledReuseStress(t *testing.T) {
	producers := runtime.GOMAXPROCS(0)
	if producers < 2 {
		producers = 2
	}
	consumers := producers
	perProducer := 20000
	if testing.Short() {
		perProducer = 2000
	}

	q := newPooledMSQ()
	total := producers * perProducer
	delivered := make([]atomic.Uint32, total)
	var poison atomic.Uint32

	var wg, prodWG sync.WaitGroup
	prodWG.Add(producers)
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer prodWG.Done()
			for i := 0; i < perProducer; i++ {
				q.enqueue(uint64(p*perProducer + i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { prodWG.Wait(); close(done) }()

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok, poisoned := q.dequeue()
				if ok {
					if poisoned {
						poison.Add(1)
					}
					delivered[v].Add(1)
					continue
				}
				select {
				case <-done:
					if _, ok, _ := q.dequeue(); !ok {
						return
					}
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()

	if n := poison.Load(); n != 0 {
		t.Fatalf("%d reads of pooled (reclaimed) nodes under protection", n)
	}
	for v := range delivered {
		if n := delivered[v].Load(); n != 1 {
			t.Fatalf("value %d delivered %d times, want exactly once", v, n)
		}
	}
	// The pool must actually have cycled nodes, or the test proves nothing.
	q.pool.Collect()
	if q.pool.Freed.Load() == 0 {
		t.Fatalf("pool never recycled a node; stress exercised nothing")
	}
}
