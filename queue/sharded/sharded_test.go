package sharded_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/faaq"
	"repro/queue/sharded"
)

// faaqShards builds each shard as one faaq queue recording into rec, as
// the registry's Sharded-FAA entry does.
func faaqShards(rec *obs.Stats) func(int, int) sharded.Shard[uint64] {
	return func(int, int) sharded.Shard[uint64] {
		q := faaq.New[uint64](faaq.WithRecorder(rec))
		shared := func(int) queue.BatchQueue[uint64] { return q }
		return sharded.Shard[uint64]{Producer: shared, Consumer: shared}
	}
}

func newQ(shards, producers int, rec *obs.Stats) *sharded.Queue[uint64] {
	return sharded.New(shards, producers, rec, faaqShards(rec))
}

func TestSequentialFIFOOneProducer(t *testing.T) {
	q := newQ(3, 1, nil)
	p := q.Producer(0)
	c := q.Consumer(0)
	if _, ok := c.Dequeue(); ok {
		t.Fatal("fresh queue not empty")
	}
	const n = 500
	for i := 0; i < n; i++ {
		p.Enqueue(uint64(i + 1))
	}
	for i := 0; i < n; i++ {
		v, ok := c.Dequeue()
		if !ok || v != uint64(i+1) {
			t.Fatalf("position %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := c.Dequeue(); ok {
		t.Fatal("drained queue not empty")
	}
}

// TestWorkStealing pins all elements to producer 0's shard, then drains
// through a consumer whose home is a DIFFERENT shard: every element must
// arrive via the steal path, and deq_steals must account for all of
// them.
func TestWorkStealing(t *testing.T) {
	rec := obs.New()
	q := newQ(4, 4, rec)
	p := q.Producer(0) // home shard 0
	const n = 100
	for i := 0; i < n; i++ {
		p.Enqueue(uint64(i + 1))
	}
	c := q.Consumer(1) // home shard 1: always dry, must steal
	for i := 0; i < n; i++ {
		v, ok := c.Dequeue()
		if !ok || v != uint64(i+1) {
			t.Fatalf("position %d: got %d,%v (stealing must preserve shard FIFO)", i, v, ok)
		}
	}
	if _, ok := c.Dequeue(); ok {
		t.Fatal("drained queue not empty")
	}
	if got := rec.Snapshot().Counter(obs.DeqSteals); got != n {
		t.Fatalf("deq_steals = %d, want %d", got, n)
	}
}

// TestWorkStealingBatch is the batch analogue: a batch dequeue with a
// dry home shard must fill from the others and count the steals.
func TestWorkStealingBatch(t *testing.T) {
	rec := obs.New()
	q := newQ(3, 3, rec)
	q.Producer(0).EnqueueBatch([]uint64{1, 2, 3})
	q.Producer(1).EnqueueBatch([]uint64{4, 5})
	dst := make([]uint64, 10)
	got := q.Consumer(2).DequeueBatch(dst) // home shard 2 is empty
	if got != 5 {
		t.Fatalf("DequeueBatch = %d, want 5", got)
	}
	if got := rec.Snapshot().Counter(obs.DeqSteals); got != 5 {
		t.Fatalf("deq_steals = %d, want 5", got)
	}
	// Each shard's run must be contiguous and in order in dst.
	seen := map[uint64]bool{}
	for _, v := range dst[:5] {
		seen[v] = true
	}
	for v := uint64(1); v <= 5; v++ {
		if !seen[v] {
			t.Fatalf("element %d missing from batch %v", v, dst[:5])
		}
	}
}

// TestShardAffinity checks the producer→shard pinning: with S shards,
// producers i and i+S share a shard, producers i and i+1 do not (their
// elements interleave freely but never share a sub-queue's FIFO).
func TestShardAffinity(t *testing.T) {
	q := newQ(2, 4, nil)
	// Producers 0 and 2 → shard 0; producers 1 and 3 → shard 1.
	q.Producer(0).Enqueue(100)
	q.Producer(2).Enqueue(102)
	q.Producer(1).Enqueue(101)
	q.Producer(3).Enqueue(103)
	c := q.Consumer(0) // home shard 0
	v1, _ := c.Dequeue()
	v2, _ := c.Dequeue()
	if v1 != 100 || v2 != 102 {
		t.Fatalf("home-shard drain = %d,%d, want 100,102 (producers 0 and 2 share shard 0)", v1, v2)
	}
	v3, _ := c.Dequeue()
	v4, _ := c.Dequeue()
	if v3 != 101 || v4 != 103 {
		t.Fatalf("steal drain = %d,%d, want 101,103", v3, v4)
	}
}

// TestPerProducerFIFOConcurrent is the front-end's ordering contract
// under real concurrency: exactly-once delivery, and each consumer sees
// each producer's elements in increasing sequence order.
func TestPerProducerFIFOConcurrent(t *testing.T) {
	const shards, producers, consumers, per = 3, 6, 4, 2000
	q := newQ(shards, producers, nil)
	var wg sync.WaitGroup
	var done sync.WaitGroup
	done.Add(producers)
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Done()
			v := q.Producer(p)
			vs := make([]uint64, 8)
			seq := 0
			for seq < per {
				k := len(vs)
				if per-seq < k {
					k = per - seq
				}
				for i := 0; i < k; i++ {
					vs[i] = uint64(p+1)<<32 | uint64(seq+i+1)
				}
				if k == 1 {
					v.Enqueue(vs[0])
				} else {
					v.EnqueueBatch(vs[:k])
				}
				seq += k
			}
		}()
	}
	producersDone := make(chan struct{})
	go func() { done.Wait(); close(producersDone) }()

	type result struct {
		count int
		last  []uint64
		err   string
	}
	results := make([]result, consumers)
	for c := 0; c < consumers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := q.Consumer(c)
			last := make([]uint64, producers+1)
			count := 0
			dst := make([]uint64, 16)
			check := func(n int) bool {
				for _, x := range dst[:n] {
					p, seq := x>>32, x&0xffffffff
					if seq <= last[p] {
						results[c].err = "per-producer order violated"
						return false
					}
					last[p] = seq
					count++
				}
				return true
			}
			for {
				n := v.DequeueBatch(dst)
				if n > 0 {
					if !check(n) {
						return
					}
					continue
				}
				select {
				case <-producersDone:
					for {
						n := v.DequeueBatch(dst)
						if n == 0 {
							results[c].count = count
							results[c].last = last
							return
						}
						if !check(n) {
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
	total := 0
	for c, r := range results {
		if r.err != "" {
			t.Fatalf("consumer %d: %s", c, r.err)
		}
		total += r.count
	}
	if total != producers*per {
		t.Fatalf("delivered %d of %d elements", total, producers*per)
	}
}

// TestConsumerViewEnqueueRoutesToShard: consumer views of shareable
// sub-queues accept enqueues (to the home shard), preserving the
// underlying entry's contract.
func TestConsumerViewEnqueue(t *testing.T) {
	q := newQ(2, 2, nil)
	c := q.Consumer(1)
	c.Enqueue(7)
	if v, ok := c.Dequeue(); !ok || v != 7 {
		t.Fatalf("got %d,%v, want 7,true", v, ok)
	}
}

func TestDefaultsAndPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { sharded.New(-1, 1, nil, faaqShards(nil)) },
		func() { sharded.New(1, -2, nil, faaqShards(nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad count did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestCustomShardBuilder builds the shards through a builder that records
// what it is told, and checks it sees correct per-shard producer counts.
func TestCustomShardBuilder(t *testing.T) {
	var mu sync.Mutex
	perShardSeen := map[int]int{}
	// Producers 7 over 3 shards: ceil(7/3) = 3 per shard.
	q := sharded.New(3, 7, nil, func(shard, perShard int) sharded.Shard[uint64] {
		mu.Lock()
		perShardSeen[shard] = perShard
		mu.Unlock()
		inner := faaq.New[uint64]()
		view := func(int) queue.BatchQueue[uint64] { return inner }
		return sharded.Shard[uint64]{Producer: view, Consumer: view}
	})
	for s := 0; s < 3; s++ {
		if perShardSeen[s] != 3 {
			t.Fatalf("shard %d told %d producers, want 3", s, perShardSeen[s])
		}
	}
	q.Producer(6).Enqueue(42) // producer 6 → shard 0, per-shard index 2
	if v, ok := q.Consumer(0).Dequeue(); !ok || v != 42 {
		t.Fatalf("got %d,%v, want 42,true", v, ok)
	}
}

// TestStealBackoffMisses drives a consumer against a drained queue: every
// full sweep must count one deq_steal_miss, the view must keep returning
// not-ok promptly (the backoff is bounded), and a successful dequeue must
// reset the miss streak so steady-state consumption pays no backoff.
func TestStealBackoffMisses(t *testing.T) {
	rec := obs.New()
	q := newQ(4, 4, rec)
	c := q.Consumer(0)

	const sweeps = 10
	for i := 0; i < sweeps; i++ {
		if _, ok := c.Dequeue(); ok {
			t.Fatal("empty queue returned an element")
		}
	}
	if got := rec.Snapshot().Counter(obs.DeqStealMisses); got != sweeps {
		t.Fatalf("deq_steal_misses = %d, want %d", got, sweeps)
	}

	// A hit resets the streak: the next miss streak starts from scratch.
	q.Producer(0).Enqueue(42)
	if v, ok := c.Dequeue(); !ok || v != 42 {
		t.Fatalf("dequeue after refill: got %d,%v", v, ok)
	}
	if _, ok := c.Dequeue(); ok {
		t.Fatal("queue should be empty again")
	}
	if got := rec.Snapshot().Counter(obs.DeqStealMisses); got != sweeps+1 {
		t.Fatalf("deq_steal_misses after hit = %d, want %d", got, sweeps+1)
	}
}

// TestStealBackoffBatch mirrors TestStealBackoffMisses on the batch
// surface: empty DequeueBatch sweeps count misses, non-empty ones reset.
func TestStealBackoffBatch(t *testing.T) {
	rec := obs.New()
	q := newQ(2, 2, rec)
	c := q.Consumer(0)
	dst := make([]uint64, 8)

	for i := 0; i < 5; i++ {
		if n := c.DequeueBatch(dst); n != 0 {
			t.Fatalf("empty queue returned %d elements", n)
		}
	}
	if got := rec.Snapshot().Counter(obs.DeqStealMisses); got != 5 {
		t.Fatalf("deq_steal_misses = %d, want 5", got)
	}
	q.Producer(0).EnqueueBatch([]uint64{1, 2, 3})
	if n := c.DequeueBatch(dst); n != 3 {
		t.Fatalf("DequeueBatch = %d, want 3", n)
	}
	if got := rec.Snapshot().Counter(obs.DeqStealMisses); got != 5 {
		t.Fatalf("deq_steal_misses grew on a successful batch: %d", got)
	}
}
