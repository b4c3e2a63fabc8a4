package machine

import "testing"

// Spurious aborts must carry neither the conflict nor the explicit flag,
// and an aborted transaction's writes must not leak.
func TestSpuriousAbortStatus(t *testing.T) {
	cfg := small()
	cfg.Faults.SpuriousAbortProb = 1 // every transaction
	m := New(cfg)
	a := m.AllocLine(8, 0)
	var st AbortStatus
	var ok bool
	m.Go(0, func(p *Proc) {
		ok, st = p.Transaction(func(tx *Tx) {
			tx.Read(a)
			tx.Delay(1000) // give the injected interrupt time to land
			tx.Write(a, 1)
		})
	})
	m.Run()
	if ok {
		t.Fatal("transaction survived guaranteed spurious abort")
	}
	if st.Conflict || st.Explicit {
		t.Fatalf("spurious abort mislabeled: %+v", st)
	}
	if m.Stats.TxAbortSpurious == 0 {
		t.Fatal("spurious abort not counted")
	}
	if m.Peek(a) != 0 {
		t.Fatal("aborted write leaked")
	}
}

// A transaction whose footprint exceeds the configured capacity aborts
// with the Capacity flag and leaks nothing.
func TestCapacityAbortOnRead(t *testing.T) {
	cfg := small()
	cfg.Faults.CapacityLines = 4
	m := New(cfg)
	addrs := make([]Addr, 8)
	for i := range addrs {
		addrs[i] = m.AllocLine(8, 0)
	}
	var ok bool
	var st AbortStatus
	m.Go(0, func(p *Proc) {
		ok, st = p.Transaction(func(tx *Tx) {
			for _, a := range addrs {
				tx.Read(a)
			}
		})
	})
	m.Run()
	if ok {
		t.Fatal("over-capacity transaction committed")
	}
	if !st.Capacity {
		t.Fatalf("status = %+v, want capacity", st)
	}
	if m.Stats.TxAbortCapacity != 1 {
		t.Fatalf("TxAbortCapacity = %d", m.Stats.TxAbortCapacity)
	}
}

func TestCapacityAbortOnWrite(t *testing.T) {
	cfg := small()
	cfg.Faults.CapacityLines = 2
	m := New(cfg)
	addrs := make([]Addr, 4)
	for i := range addrs {
		addrs[i] = m.AllocLine(8, 0)
	}
	var ok bool
	var st AbortStatus
	m.Go(0, func(p *Proc) {
		ok, st = p.Transaction(func(tx *Tx) {
			for _, a := range addrs {
				tx.Write(a, 1)
			}
		})
	})
	m.Run()
	if ok || !st.Capacity {
		t.Fatalf("ok=%v status=%+v, want capacity abort", ok, st)
	}
	for _, a := range addrs {
		if m.Peek(a) != 0 {
			t.Fatal("aborted write leaked")
		}
	}
}

func TestWithinCapacityCommits(t *testing.T) {
	cfg := small()
	cfg.Faults.CapacityLines = 8
	m := New(cfg)
	addrs := make([]Addr, 4)
	for i := range addrs {
		addrs[i] = m.AllocLine(8, 0)
	}
	var ok bool
	m.Go(0, func(p *Proc) {
		ok, _ = p.Transaction(func(tx *Tx) {
			for _, a := range addrs {
				tx.Write(a, tx.Read(a)+1) // read+write same lines: 4 lines total
			}
		})
	})
	m.Run()
	if !ok {
		t.Fatal("within-capacity transaction aborted")
	}
	for _, a := range addrs {
		if m.Peek(a) != 1 {
			t.Fatal("committed write missing")
		}
	}
}

// Under a steady rate of injected aborts, retried transactions still make
// progress and atomicity holds.
func TestSpuriousAbortRetryProgress(t *testing.T) {
	cfg := small()
	cfg.Faults.SpuriousAbortProb = 1.0 / 3
	m := New(cfg)
	a := m.AllocLine(8, 0)
	const threads, perThread = 6, 20
	for c := 0; c < threads; c++ {
		m.Go(c, func(p *Proc) {
			done := 0
			for done < perThread {
				ok, _ := p.Transaction(func(tx *Tx) {
					v := tx.Read(a)
					tx.Delay(50)
					tx.Write(a, v+1)
				})
				if ok {
					done++
				}
			}
		})
	}
	m.Run()
	if got, want := m.Peek(a), uint64(threads*perThread); got != want {
		t.Fatalf("counter = %d, want %d (lost or duplicated increments)", got, want)
	}
	if m.Stats.TxAbortSpurious == 0 {
		t.Fatal("injection never fired")
	}
}
