package sbq_test

import (
	"testing"

	"repro/internal/machine/policy"
	"repro/internal/txcas"
	"repro/queue/sbq"
)

// These tests keep the names they had when the delayed CAS and the basket
// override had positional constructors (NewDelayedCAS, NewWithOptions).
// New replaced both; the tests pin the same behavior through it.

func TestDeprecatedNewDelayedCAS(t *testing.T) {
	// 125 cycles = 50ns at the policies' 2.5 cycles/ns.
	q := sbq.New[uint64](sbq.WithEnqueuers(2),
		sbq.WithTxCAS(txcas.WithPolicy(policy.DelayedCAS{Delay: 125})))
	h0, h1 := q.NewHandle(), q.NewHandle()
	const per = 100
	for i := 0; i < per; i++ {
		h0.Enqueue(uint64(i))
		h1.Enqueue(uint64(per + i))
	}
	drain(t, q, 2*per)
}

func TestDeprecatedNewWithOptionsDefaultBasket(t *testing.T) {
	// A nil basket constructor selects the default scalable basket.
	q := sbq.New[uint64](sbq.WithEnqueuers(2), sbq.WithBasket[uint64](nil))
	h := q.NewHandle()
	for i := 0; i < 50; i++ {
		h.Enqueue(uint64(i))
	}
	for i := 0; i < 50; i++ {
		v, ok := q.Dequeue()
		if !ok || v != uint64(i) {
			t.Fatalf("position %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("drained queue not empty")
	}
}
