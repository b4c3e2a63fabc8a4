package queuetest

import (
	"runtime"
	"sync"
	"testing"

	"repro/queue"
)

// BatchFactory builds one queue instance and hands out batch-capable
// per-goroutine views of it, mirroring Factory for the queue.BatchQueue
// surface. Every registry entry's views implement the batch methods
// natively, so batch conformance is table-driven over the whole registry.
type BatchFactory func(producers int) (producerView func(i int) queue.BatchQueue[uint64], consumerView func(i int) queue.BatchQueue[uint64])

// CheckBatchSequential drives the batch surface on one goroutine through
// one producer view: empty batches are no-ops, intra-batch FIFO order is
// preserved (also across batches and interleaved singles, which a single
// producer is entitled to under both ordering contracts), partial dequeues
// report honest counts, and oversized batches survive internal segment
// boundaries.
func CheckBatchSequential(t *testing.T, f BatchFactory) {
	t.Helper()
	prod, cons := f(1)
	p, c := prod(0), cons(0)

	// Empty in, empty out.
	p.EnqueueBatch(nil)
	p.EnqueueBatch([]uint64{})
	if n := c.DequeueBatch(make([]uint64, 4)); n != 0 {
		t.Fatalf("DequeueBatch on fresh queue = %d, want 0", n)
	}
	if n := c.DequeueBatch(nil); n != 0 {
		t.Fatalf("DequeueBatch with nil dst = %d, want 0", n)
	}

	// Batches, singles, batches: one producer's elements drain in order.
	p.EnqueueBatch([]uint64{1, 2, 3})
	p.Enqueue(4)
	p.EnqueueBatch([]uint64{5})
	p.EnqueueBatch([]uint64{6, 7, 8, 9})
	next := uint64(1)
	dst := make([]uint64, 4)
	for next <= 9 {
		n := c.DequeueBatch(dst)
		if n == 0 {
			t.Fatalf("queue ran dry at element %d of 9", next)
		}
		for _, v := range dst[:n] {
			if v != next {
				t.Fatalf("got %d, want %d (intra-batch FIFO)", v, next)
			}
			next++
		}
	}

	// Partial dequeue: a short dst fills exactly; the remainder reports an
	// honest count against a dst longer than the queue.
	p.EnqueueBatch([]uint64{10, 11, 12})
	short := make([]uint64, 2)
	if n := c.DequeueBatch(short); n != 2 || short[0] != 10 || short[1] != 11 {
		t.Fatalf("short DequeueBatch = %d %v, want 2 [10 11]", n, short)
	}
	long := make([]uint64, 8)
	if n := c.DequeueBatch(long); n != 1 || long[0] != 12 {
		t.Fatalf("long DequeueBatch = %d (first %d), want 1 (12)", n, long[0])
	}

	// Oversized batch: bigger than any internal segment (faaq segments
	// hold 1024 cells), so the claim spans boundaries.
	const big = 3000
	vs := make([]uint64, big)
	for i := range vs {
		vs[i] = uint64(i + 100)
	}
	p.EnqueueBatch(vs)
	next = 100
	bigDst := make([]uint64, 256)
	for next < 100+big {
		n := c.DequeueBatch(bigDst)
		if n == 0 {
			t.Fatalf("queue ran dry at element %d of the oversized batch", next)
		}
		for _, v := range bigDst[:n] {
			if v != next {
				t.Fatalf("oversized batch: got %d, want %d", v, next)
			}
			next++
		}
	}
	if n := c.DequeueBatch(dst); n != 0 {
		t.Fatalf("drained queue still returned %d elements", n)
	}
}

// CheckBatchConcurrent races batch producers against batch consumers and
// verifies exactly-once delivery plus per-consumer per-producer FIFO — the
// strongest batch property shared by TotalFIFO and PerProducerFIFO
// entries (total FIFO implies it).
func CheckBatchConcurrent(t *testing.T, f BatchFactory, producers, consumers, k, perProducer int) {
	t.Helper()
	prodView, consView := f(producers)

	var wg, done sync.WaitGroup
	done.Add(producers)
	for pi := 0; pi < producers; pi++ {
		pi := pi
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Done()
			q := prodView(pi)
			vs := make([]uint64, k)
			for seq := 0; seq < perProducer; {
				n := k
				if perProducer-seq < n {
					n = perProducer - seq
				}
				for i := 0; i < n; i++ {
					vs[i] = value(pi, seq+i)
				}
				q.EnqueueBatch(vs[:n])
				seq += n
			}
		}()
	}
	producersDone := make(chan struct{})
	go func() { done.Wait(); close(producersDone) }()

	type consumerOut struct {
		seen map[uint64]int
		err  string
	}
	outs := make([]consumerOut, consumers)
	for ci := 0; ci < consumers; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := consView(ci)
			seen := map[uint64]int{}
			last := make([]uint64, producers)
			dst := make([]uint64, k)
			consume := func(n int) bool {
				for _, v := range dst[:n] {
					seen[v]++
					pi := int(v>>32) - 1
					if pi < 0 || pi >= producers {
						outs[ci].err = "element from unknown producer"
						return false
					}
					if seq := v & 0xffffffff; seq <= last[pi] {
						outs[ci].err = "per-producer order violated within one consumer"
						return false
					} else {
						last[pi] = seq
					}
				}
				return true
			}
			for {
				if n := q.DequeueBatch(dst); n > 0 {
					if !consume(n) {
						return
					}
					continue
				}
				select {
				case <-producersDone:
					for {
						n := q.DequeueBatch(dst)
						if n == 0 {
							outs[ci].seen = seen
							return
						}
						if !consume(n) {
							return
						}
					}
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()

	merged := map[uint64]int{}
	for ci, out := range outs {
		if out.err != "" {
			t.Fatalf("consumer %d: %s", ci, out.err)
		}
		for v, n := range out.seen {
			merged[v] += n
		}
	}
	for pi := 0; pi < producers; pi++ {
		for i := 0; i < perProducer; i++ {
			if n := merged[value(pi, i)]; n != 1 {
				t.Fatalf("element %#x delivered %d times, want 1", value(pi, i), n)
			}
		}
	}
	if len(merged) != producers*perProducer {
		t.Fatalf("delivered %d of %d elements", len(merged), producers*perProducer)
	}
}

// CheckConcurrentRelaxed is CheckConcurrent's counterpart for entries with
// the PerProducerFIFO contract: it verifies exactly-once delivery and that
// each consumer observes each producer's elements in enqueue order, but
// runs no linearizability checker — cross-producer reordering is the
// contract, not a bug.
func CheckConcurrentRelaxed(t *testing.T, f Factory, producers, consumers, perProducer int) {
	t.Helper()
	prodView, consView := f(producers)

	var wg, done sync.WaitGroup
	done.Add(producers)
	for pi := 0; pi < producers; pi++ {
		pi := pi
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Done()
			q := prodView(pi)
			for i := 0; i < perProducer; i++ {
				q.Enqueue(value(pi, i))
			}
		}()
	}
	producersDone := make(chan struct{})
	go func() { done.Wait(); close(producersDone) }()

	type consumerOut struct {
		seen map[uint64]int
		err  string
	}
	outs := make([]consumerOut, consumers)
	for ci := 0; ci < consumers; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := consView(ci)
			seen := map[uint64]int{}
			last := make([]uint64, producers)
			consume := func(v uint64) bool {
				seen[v]++
				pi := int(v>>32) - 1
				if pi < 0 || pi >= producers {
					outs[ci].err = "element from unknown producer"
					return false
				}
				if seq := v & 0xffffffff; seq <= last[pi] {
					outs[ci].err = "per-producer order violated within one consumer"
					return false
				} else {
					last[pi] = seq
				}
				return true
			}
			for {
				if v, ok := q.Dequeue(); ok {
					if !consume(v) {
						return
					}
					continue
				}
				select {
				case <-producersDone:
					for {
						v, ok := q.Dequeue()
						if !ok {
							outs[ci].seen = seen
							return
						}
						if !consume(v) {
							return
						}
					}
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()

	merged := map[uint64]int{}
	for ci, out := range outs {
		if out.err != "" {
			t.Fatalf("consumer %d: %s", ci, out.err)
		}
		for v, n := range out.seen {
			merged[v] += n
		}
	}
	for pi := 0; pi < producers; pi++ {
		for i := 0; i < perProducer; i++ {
			if n := merged[value(pi, i)]; n != 1 {
				t.Fatalf("element %#x delivered %d times, want 1", value(pi, i), n)
			}
		}
	}
	if len(merged) != producers*perProducer {
		t.Fatalf("delivered %d of %d elements", len(merged), producers*perProducer)
	}
}
