package export

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func snapWith(f func(r *obs.Stats)) obs.Snapshot {
	st := obs.New()
	f(st)
	return st.Snapshot()
}

// TestWindowDeltaCorrectness is the satellite coverage for delta arithmetic
// across counter-monotonic windows: priming, exact counter and histogram
// differences over several advances, and per-second rates.
func TestWindowDeltaCorrectness(t *testing.T) {
	st := obs.New()
	var w Window
	t0 := time.Unix(0, 0)

	st.Add(obs.SrvSubmits, 10)
	st.Observe(obs.LeaseLatency, 100)
	d := w.Advance(t0, st.Snapshot())
	if !d.First || d.Elapsed != 0 {
		t.Fatalf("priming delta: %+v", d)
	}
	if d.Snapshot.Counters[obs.SrvSubmits] != 10 {
		t.Fatalf("priming delta = lifetime snapshot, got %d", d.Snapshot.Counters[obs.SrvSubmits])
	}
	if d.Rate(obs.SrvSubmits) != 0 {
		t.Fatal("zero-width window must rate to 0")
	}

	st.Add(obs.SrvSubmits, 30)
	st.Add(obs.CASAttempts, 100)
	st.Add(obs.CASFailures, 25)
	st.Observe(obs.LeaseLatency, 100)
	st.Observe(obs.LeaseLatency, 5000)
	d = w.Advance(t0.Add(2*time.Second), st.Snapshot())
	if d.First || d.Reset {
		t.Fatalf("steady delta flagged: %+v", d)
	}
	if got := d.Snapshot.Counters[obs.SrvSubmits]; got != 30 {
		t.Fatalf("windowed submits = %d, want 30", got)
	}
	if got := d.Rate(obs.SrvSubmits); got != 15 {
		t.Fatalf("rate = %v, want 15/s", got)
	}
	if got := d.CASFailureRate(); got != 0.25 {
		t.Fatalf("windowed CAS failure rate = %v, want 0.25", got)
	}
	h := d.Snapshot.Series[obs.LeaseLatency]
	if h.Count != 2 || h.Sum != 5100 {
		t.Fatalf("windowed histogram: count=%d sum=%d, want 2/5100", h.Count, h.Sum)
	}

	// A third window sees only what happened after the second.
	st.Inc(obs.SrvSubmits)
	d = w.Advance(t0.Add(4*time.Second), st.Snapshot())
	if got := d.Snapshot.Counters[obs.SrvSubmits]; got != 1 {
		t.Fatalf("third window submits = %d, want 1", got)
	}
	if got := d.Snapshot.Counters[obs.CASAttempts]; got != 0 {
		t.Fatalf("third window attempts = %d, want 0", got)
	}
}

func TestWindowReset(t *testing.T) {
	var w Window
	t0 := time.Unix(0, 0)
	w.Advance(t0, snapWith(func(r *obs.Stats) { r.Add(obs.SrvAcks, 50) }))
	// Source restarted: counters smaller than before.
	d := w.Advance(t0.Add(time.Second), snapWith(func(r *obs.Stats) { r.Add(obs.SrvAcks, 3) }))
	if !d.Reset {
		t.Fatal("reset not detected")
	}
	if got := d.Snapshot.Counters[obs.SrvAcks]; got != 3 {
		t.Fatalf("reset delta re-baselines at the new lifetime value, got %d", got)
	}
	// The window re-primes on the post-reset values.
	d = w.Advance(t0.Add(2*time.Second), snapWith(func(r *obs.Stats) { r.Add(obs.SrvAcks, 5) }))
	if d.Reset || d.Snapshot.Counters[obs.SrvAcks] != 2 {
		t.Fatalf("post-reset delta: %+v", d.Snapshot.Counters[obs.SrvAcks])
	}
}

func TestDeltaRatios(t *testing.T) {
	var d Delta
	if got := d.Ratio(obs.SrvAcks, obs.SrvSubmits); got != 0 {
		t.Fatalf("empty ratio = %v", got)
	}
	if got := d.StealMissRatio(); got != 0 || math.IsNaN(got) {
		t.Fatalf("empty steal-miss ratio = %v", got)
	}
	d.Snapshot.Counters[obs.DeqSteals] = 30
	d.Snapshot.Counters[obs.DeqStealMisses] = 10
	if got := d.StealMissRatio(); got != 0.25 {
		t.Fatalf("steal-miss ratio = %v, want 0.25", got)
	}
	d.Snapshot.Counters[obs.TxStarts] = 8
	d.Snapshot.Counters[obs.TxAborts] = 2
	if got := d.AbortRate(); got != 0.25 {
		t.Fatalf("abort rate = %v, want 0.25", got)
	}
}
