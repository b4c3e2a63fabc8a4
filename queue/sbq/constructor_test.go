package sbq_test

import (
	"testing"

	"repro/internal/machine/policy"
	"repro/internal/txcas"
	"repro/queue/sbq"
)

// TestDeprecatedNewDelayedCAS keeps the name it had when the delayed CAS
// had a positional constructor (NewDelayedCAS). New replaced it; the test
// pins the same behavior through it.
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
