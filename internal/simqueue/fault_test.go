package simqueue

import (
	"testing"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/machine"
)

// SBQ-HTM must stay linearizable when the HTM spuriously aborts
// transactions (TxCAS retries them; the queue never observes a difference).
func TestSBQHTMLinearizableUnderSpuriousAborts(t *testing.T) {
	const producers, consumers, per = 6, 3, 25
	threads := producers + consumers
	cfg := machine.Default()
	cfg.SpuriousAbortEvery = 3
	m := machine.New(cfg)
	q := NewSBQ(m, SBQOptions{
		BasketSize: producers, Enqueuers: producers, Threads: threads,
		Primitive: core.Bind(threads, core.DefaultOptions()),
	})
	histories := make([][]linearize.Op, threads)
	left := producers
	for pi := 0; pi < producers; pi++ {
		pi := pi
		m.Go(pi, func(p *machine.Proc) {
			p.Delay(p.RandN(200))
			for i := 0; i < per; i++ {
				start := p.Now()
				q.Enqueue(p, pi, value(pi, i))
				histories[pi] = append(histories[pi], linearize.Op{
					Kind: linearize.Enq, Value: value(pi, i), Start: start, End: p.Now(),
				})
			}
			left--
		})
	}
	want := producers * per
	got := 0
	for ci := 0; ci < consumers; ci++ {
		tid := producers + ci
		m.Go(tid, func(p *machine.Proc) {
			for got < want || left > 0 {
				start := p.Now()
				v, ok := q.Dequeue(p, tid)
				op := linearize.Op{Kind: linearize.Deq, Start: start, End: p.Now()}
				if ok {
					op.Value = v
					got++
				} else {
					op.Empty = true
					p.Delay(200)
				}
				histories[tid] = append(histories[tid], op)
			}
		})
	}
	m.Run()
	if m.Stats.TxAbortSpurious == 0 {
		t.Fatal("injection never fired")
	}
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	var all []linearize.Op
	for _, h := range histories {
		all = append(all, h...)
	}
	if v := linearize.Check(all); v != nil {
		t.Fatal(v)
	}
}
