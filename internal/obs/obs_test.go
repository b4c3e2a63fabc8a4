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

func TestLocalShardsAggregate(t *testing.T) {
	s := obs.New()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		l := s.Local()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Inc(obs.EnqOps)
				l.Observe(obs.DeqLatency, uint64(i))
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if got := snap.Counter(obs.EnqOps); got != goroutines*per {
		t.Errorf("enq_ops = %d, want %d", got, goroutines*per)
	}
	if got := snap.Series[obs.DeqLatency].Count; got != goroutines*per {
		t.Errorf("deq hist count = %d, want %d", got, goroutines*per)
	}
}

func TestNormalize(t *testing.T) {
	if obs.Normalize(nil) != nil {
		t.Error("Normalize(nil) != nil")
	}
	if obs.Normalize(obs.Nop{}) != nil {
		t.Error("Normalize(Nop{}) != nil")
	}
	s := obs.New()
	if obs.Normalize(s) != obs.Recorder(s) {
		t.Error("Normalize(Stats) changed the recorder")
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
