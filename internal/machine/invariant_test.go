package machine

import "testing"

// checkQuiescentCoherence asserts protocol bookkeeping invariants that
// must hold once the machine is quiescent (no events pending):
//   - at most one cache holds any line in M;
//   - if some cache holds a line in M, its home directory records state M
//     with that cache as owner;
//   - no directory line is stuck in the transient downgrade state;
//   - no cache has an outstanding miss or a deferred message.
func checkQuiescentCoherence(t *testing.T, m *Machine) {
	t.Helper()
	type key struct{ line uint64 }
	owners := map[key][]int{}
	for id, c := range m.caches {
		for line, st := range c.lines {
			if st == stateM {
				owners[key{line}] = append(owners[key{line}], id)
			}
		}
		if len(c.mshr) != 0 {
			t.Errorf("C%d has %d outstanding misses at quiescence", id, len(c.mshr))
		}
		for line, msgs := range c.deferred {
			if len(msgs) != 0 {
				t.Errorf("C%d holds %d deferred messages for line %#x", id, len(msgs), line)
			}
		}
		if c.txn != nil {
			t.Errorf("C%d has a live transaction at quiescence", id)
		}
	}
	for k, own := range owners {
		if len(own) > 1 {
			t.Errorf("line %#x in M at multiple caches: %v", k.line, own)
		}
		d := m.dirs[m.homeOf(k.line)]
		dl, ok := d.lines[k.line]
		if !ok || dl.state != stateM || dl.owner != own[0] {
			t.Errorf("line %#x: cache C%d in M but directory disagrees (%+v)", k.line, own[0], dl)
		}
	}
	for s, d := range m.dirs {
		for line, dl := range d.lines {
			if dl.trans {
				t.Errorf("Dir%d line %#x stuck in transient downgrade", s, line)
			}
			if len(dl.pend) != 0 {
				t.Errorf("Dir%d line %#x has %d queued requests at quiescence", s, line, len(dl.pend))
			}
		}
	}
}

// Random mixed workloads across sockets, lines, and op types must leave
// the protocol in a consistent quiescent state.
func TestQuiescentInvariantsMixedWorkload(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := small()
		cfg.Seed = seed
		m := New(cfg)
		lines := []Addr{
			m.AllocLine(8, 0), m.AllocLine(8, 0),
			m.AllocLine(8, 1), m.AllocLine(8, 1),
		}
		for c := 0; c < m.Config().NumCores(); c++ {
			m.Go(c, func(p *Proc) {
				for i := 0; i < 40; i++ {
					a := lines[p.RandN(uint64(len(lines)))]
					switch p.RandN(6) {
					case 0:
						p.Read(a)
					case 1:
						p.Write(a, p.RandN(1000))
					case 2:
						p.FAA(a, 1)
					case 3:
						p.CAS(a, p.RandN(8), p.RandN(8))
					case 4:
						p.Swap(a, p.RandN(1000))
					case 5:
						p.Transaction(func(tx *Tx) {
							v := tx.Read(a)
							tx.Delay(p.RandN(150))
							tx.Write(a, v+1)
						})
					}
				}
			})
		}
		m.Run()
		checkQuiescentCoherence(t, m)
	}
}

// The same invariants must hold under HTM fault injection and with the
// tripped-writer fix enabled.
func TestQuiescentInvariantsWithFaultsAndFix(t *testing.T) {
	cfg := small()
	cfg.Seed = 3
	cfg.Faults.SpuriousAbortProb = 1.0 / 5
	cfg.TrippedWriterFix = true
	m := New(cfg)
	a := m.AllocLine(8, 0)
	b := m.AllocLine(8, 1)
	for c := 0; c < m.Config().NumCores(); c++ {
		m.Go(c, func(p *Proc) {
			for i := 0; i < 30; i++ {
				p.Transaction(func(tx *Tx) {
					v := tx.Read(a)
					tx.Delay(p.RandN(200))
					tx.Write(a, v+1)
				})
				p.Read(b)
				p.FAA(b, 1)
			}
		})
	}
	m.Run()
	checkQuiescentCoherence(t, m)
}
