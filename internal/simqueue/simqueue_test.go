package simqueue

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/machine"
)

// mk builds a queue of the named flavor for a machine with the given
// thread counts (enqueuer tids 0..enq-1, total tids 0..threads-1).
func mk(m *Machine, flavor string, enq, threads int) Queue {
	switch flavor {
	case "sbq-htm":
		return NewSBQ(m, SBQOptions{BasketSize: max(enq, 1), Enqueuers: max(enq, 1), Threads: threads, Append: core.New(core.DefaultOptions()).Do, Name: "SBQ-HTM"})
	case "sbq-cas":
		return NewSBQ(m, SBQOptions{BasketSize: max(enq, 1), Enqueuers: max(enq, 1), Threads: threads, Append: PlainCAS, Name: "SBQ-CAS"})
	case "sbq-dcas":
		return NewSBQ(m, SBQOptions{BasketSize: max(enq, 1), Enqueuers: max(enq, 1), Threads: threads, Append: DelayedCAS(core.DefaultDelay), Name: "SBQ-DCAS"})
	case "bq":
		return NewBQ(m, 0)
	case "faaq":
		return NewFAAQ(m, FAAQOptions{SegSize: 64, Threads: threads})
	case "ccq":
		return NewCCQ(m, threads, 0)
	case "msq":
		return NewMSQ(m, 0)
	case "lcrq":
		return NewLCRQ(m, LCRQOptions{RingSize: 16})
	}
	panic("unknown flavor " + flavor)
}

var flavors = []string{"sbq-htm", "sbq-cas", "sbq-dcas", "bq", "faaq", "ccq", "msq", "lcrq"}

func testMachine(threads int) *Machine {
	cfg := machine.Default()
	for cfg.NumCores() < threads {
		cfg.CoresPerSocket *= 2
	}
	return machine.New(cfg)
}

// value encodes a unique element per (thread, seq).
func value(tid, seq int) uint64 { return uint64(tid+1)<<32 | uint64(seq+1) }

func TestSequentialFIFO(t *testing.T) {
	for _, f := range flavors {
		t.Run(f, func(t *testing.T) {
			m := testMachine(1)
			q := mk(m, f, 1, 1)
			const n = 50
			var got []uint64
			var emptyBefore, emptyAfter bool
			m.Go(0, func(p *machine.Proc) {
				_, ok := q.Dequeue(p, 0)
				emptyBefore = !ok
				for i := 0; i < n; i++ {
					q.Enqueue(p, 0, value(0, i))
				}
				for i := 0; i < n; i++ {
					v, ok := q.Dequeue(p, 0)
					if !ok {
						t.Errorf("dequeue %d reported empty", i)
						return
					}
					got = append(got, v)
				}
				_, ok = q.Dequeue(p, 0)
				emptyAfter = !ok
			})
			m.Run()
			if !emptyBefore || !emptyAfter {
				t.Errorf("emptiness: before=%v after=%v, want true,true", emptyBefore, emptyAfter)
			}
			for i, v := range got {
				if v != value(0, i) {
					t.Fatalf("position %d: got %#x want %#x (FIFO order broken)", i, v, value(0, i))
				}
			}
		})
	}
}

// runConcurrent drives P producers and C consumers, collects the complete
// history, and returns it along with the per-value delivery counts.
func runConcurrent(t *testing.T, f string, producers, consumers, perProducer int) []linearize.Op {
	t.Helper()
	threads := producers + consumers
	m := testMachine(threads)
	q := mk(m, f, producers, threads)
	histories := make([][]linearize.Op, threads)
	producersLeft := producers
	for pi := 0; pi < producers; pi++ {
		pi := pi
		m.Go(pi, func(p *machine.Proc) {
			p.Delay(p.RandN(300))
			for i := 0; i < perProducer; i++ {
				start := p.Now()
				q.Enqueue(p, pi, value(pi, i))
				histories[pi] = append(histories[pi], linearize.Op{
					Kind: linearize.Enq, Value: value(pi, i), Start: start, End: p.Now(), Thread: pi,
				})
			}
			producersLeft--
		})
	}
	want := producers * perProducer
	delivered := 0
	for ci := 0; ci < consumers; ci++ {
		tid := producers + ci
		m.Go(tid, func(p *machine.Proc) {
			p.Delay(p.RandN(300))
			for {
				if delivered >= want && producersLeft == 0 {
					return
				}
				start := p.Now()
				v, ok := q.Dequeue(p, tid)
				op := linearize.Op{Kind: linearize.Deq, Start: start, End: p.Now(), Thread: tid}
				if ok {
					op.Value = v
					delivered++
				} else {
					op.Empty = true
					p.Delay(200)
				}
				histories[tid] = append(histories[tid], op)
			}
		})
	}
	m.Run()
	if delivered != want {
		t.Fatalf("%s: delivered %d of %d elements", f, delivered, want)
	}
	var all []linearize.Op
	for _, h := range histories {
		all = append(all, h...)
	}
	return all
}

func TestConcurrentDeliveryAndLinearizability(t *testing.T) {
	shapes := []struct{ p, c, n int }{
		{4, 4, 40},
		{8, 2, 30},
		{2, 8, 30},
		{1, 6, 40},
		{6, 1, 30},
	}
	for _, f := range flavors {
		for _, s := range shapes {
			t.Run(fmt.Sprintf("%s/p%dc%d", f, s.p, s.c), func(t *testing.T) {
				h := runConcurrent(t, f, s.p, s.c, s.n)
				if v := linearize.Check(h); v != nil {
					t.Fatalf("%s: %v", f, v)
				}
			})
		}
	}
}

func TestProducerOnlyThenDrain(t *testing.T) {
	for _, f := range flavors {
		t.Run(f, func(t *testing.T) {
			const producers, per = 10, 25
			m := testMachine(producers + 1)
			q := mk(m, f, producers, producers+1)
			for pi := 0; pi < producers; pi++ {
				pi := pi
				m.Go(pi, func(p *machine.Proc) {
					for i := 0; i < per; i++ {
						q.Enqueue(p, pi, value(pi, i))
					}
				})
			}
			m.Run()
			// Drain sequentially and verify the multiset.
			m2 := 0
			seen := make(map[uint64]bool)
			m.Go(producers, func(p *machine.Proc) {
				for {
					v, ok := q.Dequeue(p, producers)
					if !ok {
						return
					}
					if seen[v] {
						t.Errorf("duplicate element %#x", v)
					}
					seen[v] = true
					m2++
				}
			})
			m.Run()
			if m2 != producers*per {
				t.Fatalf("drained %d of %d", m2, producers*per)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, f := range flavors {
		t.Run(f, func(t *testing.T) {
			run := func() uint64 {
				m := testMachine(8)
				q := mk(m, f, 4, 8)
				for pi := 0; pi < 4; pi++ {
					pi := pi
					m.Go(pi, func(p *machine.Proc) {
						for i := 0; i < 15; i++ {
							q.Enqueue(p, pi, value(pi, i))
						}
					})
				}
				got := 0
				for ci := 4; ci < 8; ci++ {
					ci := ci
					m.Go(ci, func(p *machine.Proc) {
						for got < 60 {
							if _, ok := q.Dequeue(p, ci); ok {
								got++
							} else {
								p.Delay(100)
							}
						}
					})
				}
				m.Run()
				return m.Now()
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// SBQ-specific unit tests.

func TestSBQBasketInsertExtract(t *testing.T) {
	m := testMachine(4)
	q := NewSBQ(m, SBQOptions{BasketSize: 4, Enqueuers: 4, Threads: 4})
	node := q.newNode(0)
	m.Go(0, func(p *machine.Proc) {
		if !q.basketInsert(p, node, 0, 100) {
			t.Error("insert into fresh cell failed")
		}
		if q.basketInsert(p, node, 0, 200) {
			t.Error("second insert into same cell succeeded")
		}
		if !q.basketInsert(p, node, 2, 300) {
			t.Error("insert into other cell failed")
		}
		got := map[uint64]bool{}
		for {
			v, ok := q.basketExtract(p, node, 0)
			if !ok {
				break
			}
			got[v] = true
		}
		if !got[100] || !got[300] || len(got) != 2 {
			t.Errorf("extracted %v, want {100,300}", got)
		}
		if !q.basketEmpty(p, node) {
			t.Error("basket not empty after exhaustion")
		}
		if q.basketInsert(p, node, 1, 400) {
			// Inserter 1's cell was poisoned by the extractor sweep.
			t.Error("insert succeeded after basket exhausted")
		}
	})
	m.Run()
}

func TestSBQBasketExtractorClosesBasket(t *testing.T) {
	// Once extraction exhausts the index space, the empty bit must be set
	// so later extractors fail fast without touching the counter.
	m := testMachine(2)
	q := NewSBQ(m, SBQOptions{BasketSize: 2, Enqueuers: 2, Threads: 2})
	node := q.newNode(0)
	m.Go(0, func(p *machine.Proc) {
		q.basketInsert(p, node, 0, 11)
		q.basketExtract(p, node, 0) // takes 11 at index 0
		q.basketExtract(p, node, 0) // hits index 1 (INSERT), then exhausts
		before := p.Read(node + q.offCounter(0))
		if _, ok := q.basketExtract(p, node, 0); ok {
			t.Error("extract from exhausted basket succeeded")
		}
		if p.Read(node+q.offCounter(0)) != before {
			t.Error("failed extract after empty bit still did FAA")
		}
	})
	m.Run()
}

func TestSBQNodeReuseAndReclamation(t *testing.T) {
	const producers, consumers, per = 6, 2, 40
	threads := producers + consumers
	m := testMachine(threads)
	q := NewSBQ(m, SBQOptions{BasketSize: producers, Enqueuers: producers, Threads: threads, Name: "SBQ"})
	for pi := 0; pi < producers; pi++ {
		pi := pi
		m.Go(pi, func(p *machine.Proc) {
			for i := 0; i < per; i++ {
				q.Enqueue(p, pi, value(pi, i))
			}
		})
	}
	got := 0
	for ci := producers; ci < threads; ci++ {
		ci := ci
		m.Go(ci, func(p *machine.Proc) {
			for got < producers*per {
				if _, ok := q.Dequeue(p, ci); ok {
					got++
				} else {
					p.Delay(150)
				}
			}
		})
	}
	m.Run()
	if got != producers*per {
		t.Fatalf("delivered %d of %d", got, producers*per)
	}
	if q.FreedNodes == 0 {
		t.Error("epoch reclamation never freed a node")
	}
}

func TestSBQEnqueuerIDBound(t *testing.T) {
	m := testMachine(2)
	q := NewSBQ(m, SBQOptions{BasketSize: 1, Enqueuers: 1, Threads: 2})
	m.Go(0, func(p *machine.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range enqueuer id did not panic")
			}
		}()
		q.Enqueue(p, 1, 5)
	})
	m.Run()
}

func TestSBQMoreEnqueuersThanCellsPanics(t *testing.T) {
	m := testMachine(2)
	defer func() {
		if recover() == nil {
			t.Error("Enqueuers > BasketSize did not panic")
		}
	}()
	NewSBQ(m, SBQOptions{BasketSize: 2, Enqueuers: 3})
}

func TestInvalidValuePanics(t *testing.T) {
	m := testMachine(1)
	q := NewMSQ(m, 0)
	m.Go(0, func(p *machine.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("sentinel-colliding value did not panic")
			}
		}()
		q.Enqueue(p, 0, sentinelEmpty)
	})
	m.Run()
}

func TestFAAQSegmentGrowth(t *testing.T) {
	m := testMachine(1)
	q := NewFAAQ(m, FAAQOptions{SegSize: 8, Threads: 1})
	const n = 100 // forces many segments
	m.Go(0, func(p *machine.Proc) {
		for i := 0; i < n; i++ {
			q.Enqueue(p, 0, value(0, i))
		}
		for i := 0; i < n; i++ {
			v, ok := q.Dequeue(p, 0)
			if !ok || v != value(0, i) {
				t.Errorf("dequeue %d: got %#x,%v", i, v, ok)
				return
			}
		}
	})
	m.Run()
}

func TestTaggedPointerHelpers(t *testing.T) {
	p := uint64(0x1000)
	if isDeleted(tag(p, false)) {
		t.Error("clean pointer reads deleted")
	}
	if !isDeleted(tag(p, true)) {
		t.Error("deleted pointer reads clean")
	}
	if ptrOf(tag(p, true)) != p {
		t.Error("ptrOf lost bits")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
