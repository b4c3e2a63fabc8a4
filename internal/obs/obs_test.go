package obs_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestStatsCountersAndSnapshot(t *testing.T) {
	s := obs.New()
	s.Inc(obs.CASAttempts)
	s.Add(obs.CASAttempts, 9)
	s.Inc(obs.CASFailures)
	s.Observe(obs.EnqLatency, 100)
	s.Observe(obs.EnqLatency, 200)

	snap := s.Snapshot()
	if got := snap.Counter(obs.CASAttempts); got != 10 {
		t.Errorf("cas_attempts = %d, want 10", got)
	}
	if got := snap.CASFailureRate(); got != 0.1 {
		t.Errorf("failure rate = %v, want 0.1", got)
	}
	h := snap.Series[obs.EnqLatency]
	if h.Count != 2 || h.Sum != 300 {
		t.Errorf("enq hist count=%d sum=%d", h.Count, h.Sum)
	}
}

func TestScopesSumIntoParent(t *testing.T) {
	root := obs.New()
	root.Inc(obs.SrvSubmits)
	const goroutines, per = 8, 1000
	scopes := make([]*obs.Stats, goroutines)
	var wg sync.WaitGroup
	for g := range scopes {
		sc := root.Scope()
		scopes[g] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sc.Inc(obs.EnqOps)
				sc.Observe(obs.DeqLatency, uint64(i))
			}
		}()
	}
	// A grandchild counts in its parent and the root, not in its siblings.
	leaf := scopes[0].Scope()
	leaf.Add(obs.CASFailures, 5)
	wg.Wait()

	snap := root.Snapshot()
	if got := snap.Counter(obs.EnqOps); got != goroutines*per {
		t.Errorf("root enq_ops = %d, want %d", got, goroutines*per)
	}
	if got := snap.Series[obs.DeqLatency].Count; got != goroutines*per {
		t.Errorf("root deq hist count = %d, want %d", got, goroutines*per)
	}
	if got := snap.Counter(obs.SrvSubmits); got != 1 {
		t.Errorf("root srv_submits = %d, want 1 (its own record)", got)
	}
	if got := snap.Counter(obs.CASFailures); got != 5 {
		t.Errorf("root cas_failures = %d, want 5 (the grandchild's)", got)
	}
	for i, sc := range scopes {
		cs := sc.Snapshot()
		if got := cs.Counter(obs.EnqOps); got != per {
			t.Errorf("scope %d enq_ops = %d, want %d (its own records only)", i, got, per)
		}
		if got := cs.Counter(obs.SrvSubmits); got != 0 {
			t.Errorf("scope %d srv_submits = %d, want 0 (the parent's record)", i, got)
		}
		wantCAS := uint64(0)
		if i == 0 {
			wantCAS = 5
		}
		if got := cs.Counter(obs.CASFailures); got != wantCAS {
			t.Errorf("scope %d cas_failures = %d, want %d", i, got, wantCAS)
		}
	}
	if got := leaf.Snapshot().Counter(obs.EnqOps); got != 0 {
		t.Errorf("leaf enq_ops = %d, want 0", got)
	}
}

// TestScopeWhileRecording creates scopes while other goroutines record into
// the tree and snapshot it: every snapshot must be monotonic, and the final
// one must hold every record.
func TestScopeWhileRecording(t *testing.T) {
	root := obs.New()
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := root.Scope()
			for i := 0; i < per; i++ {
				if i%100 == 0 {
					sc = sc.Scope() // nest while siblings record
				}
				sc.Inc(obs.EnqOps)
				sc.Observe(obs.EnqLatency, uint64(i))
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := root.Snapshot()
				got := snap.Counter(obs.EnqOps)
				if got < last {
					t.Errorf("enq_ops went back from %d to %d", last, got)
					return
				}
				last = got
				if h := snap.Series[obs.EnqLatency]; h.Count < sumBuckets(h.Buckets[:]) {
					t.Errorf("histogram count %d below its buckets' sum", h.Count)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	snap := root.Snapshot()
	if got := snap.Counter(obs.EnqOps); got != writers*per {
		t.Fatalf("enq_ops = %d, want %d", got, writers*per)
	}
	if got := snap.Series[obs.EnqLatency].Count; got != writers*per {
		t.Fatalf("enq hist count = %d, want %d", got, writers*per)
	}
}

func sumBuckets(b []uint64) uint64 {
	var n uint64
	for _, v := range b {
		n += v
	}
	return n
}

// eventLog is an event-only recorder that logs event kinds.
type eventLog struct {
	mu    sync.Mutex
	kinds []obs.EventKind
}

func (l *eventLog) Event(k obs.EventKind, _ int32, _ uint64) {
	l.mu.Lock()
	l.kinds = append(l.kinds, k)
	l.mu.Unlock()
}

// TestScopesInheritEvents: scopes two levels below a traced root hand out
// the root's event recorder, so their events reach it, while a
// counters-only root and a nil Stats hand out none.
func TestScopesInheritEvents(t *testing.T) {
	log := &eventLog{}
	root := obs.NewWithEvents(log)
	child := root.Scope()
	grandchild := child.Scope()
	for _, sc := range []*obs.Stats{root, child, grandchild} {
		ev := sc.Events()
		if ev == nil {
			t.Fatal("a scope of a traced root has no event recorder")
		}
		ev.Event(obs.EvSrvSubmit, obs.LaneDefault, 1)
	}
	if len(log.kinds) != 3 {
		t.Fatalf("root's recorder got %d events, want 3 (root, child, grandchild)", len(log.kinds))
	}
	grandchild.Inc(obs.SrvSubmits)
	if got := root.Snapshot().Counter(obs.SrvSubmits); got != 1 {
		t.Errorf("root srv_submits = %d, want 1 (the grandchild's)", got)
	}
	if ev := obs.New().Scope().Scope().Events(); ev != nil {
		t.Errorf("scope of a counters-only root has event recorder %v", ev)
	}
	if ev := (*obs.Stats)(nil).Events(); ev != nil {
		t.Errorf("nil Stats has event recorder %v", ev)
	}
}

func TestMergeAndFormat(t *testing.T) {
	a := obs.New()
	a.Inc(obs.TxStarts)
	a.Inc(obs.TxCommits)
	b := obs.New()
	b.Inc(obs.TxStarts)
	b.Inc(obs.TxAborts)
	b.Inc(obs.TxAbortsConflict)

	snap := a.Snapshot()
	snap.Merge(b.Snapshot())
	if snap.Counter(obs.TxStarts) != 2 {
		t.Fatalf("tx_starts = %d", snap.Counter(obs.TxStarts))
	}
	if snap.AbortRate() != 0.5 {
		t.Errorf("abort rate = %v", snap.AbortRate())
	}
	htm := snap.FormatHTM()
	if !strings.Contains(htm, "conflict=1") {
		t.Errorf("FormatHTM missing conflict breakdown: %q", htm)
	}
	if s := snap.FormatCoherence(); s != "" {
		t.Errorf("FormatCoherence with no messages = %q, want empty", s)
	}
}
