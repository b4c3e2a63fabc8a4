package core

import (
	"testing"

	"repro/internal/machine"
)

// TxCAS must keep CAS semantics when the HTM aborts transactions for
// non-conflict reasons (the §4.2 requirement: fail only if the target
// location actually changed).
func TestTxCASUnderSpuriousAborts(t *testing.T) {
	cfg := machine.Default()
	cfg.Faults.SpuriousAbortProb = 1.0 / 4
	m := machine.New(cfg)
	a := m.AllocLine(8, 0)
	const threads, rounds = 12, 25
	var succ uint64
	for i := 0; i < threads; i++ {
		m.Go(i, func(p *machine.Proc) {
			c := New(DefaultOptions())
			for r := 0; r < rounds; r++ {
				old := p.Read(a)
				if c.Do(p, a, old, old+1) {
					succ++
				}
			}
		})
	}
	m.Run()
	if m.Stats.TxAbortSpurious == 0 {
		t.Fatal("injection never fired")
	}
	if m.Peek(a) != succ {
		t.Fatalf("value %d != successes %d: spurious aborts broke CAS semantics", m.Peek(a), succ)
	}
	if succ == 0 {
		t.Fatal("no TxCAS succeeded under injected aborts")
	}
}

// With injection on every transaction, TxCAS's bounded retries exhaust and
// the wait-free standard-CAS fallback completes the operation.
func TestTxCASFallbackUnderTotalAborts(t *testing.T) {
	cfg := machine.Default()
	cfg.Faults.SpuriousAbortProb = 1
	m := machine.New(cfg)
	a := m.AllocLine(8, 0)
	var ok bool
	var fallbacks uint64
	m.Go(0, func(p *machine.Proc) {
		opt := DefaultOptions()
		opt.MaxRetries = 4
		// A long delay guarantees the injected abort lands every attempt.
		opt.Delay = 1000
		c := New(opt)
		ok = c.Do(p, a, 0, 7)
		fallbacks = c.Fallbacks
	})
	m.Run()
	if !ok || m.Peek(a) != 7 {
		t.Fatalf("fallback CAS failed: ok=%v value=%d", ok, m.Peek(a))
	}
	if fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", fallbacks)
	}
}
