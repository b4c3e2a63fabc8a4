package harness

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestRunTraceSBQ records a small mixed SBQ-HTM run and checks the trace
// carries both layers (queue ops, machine HTM/coherence), survives the
// Chrome round trip, and analyzes without error.
func TestRunTraceSBQ(t *testing.T) {
	tr := TraceQueue(SBQHTM, Options{OpsPerThread: 60, ThreadCounts: []int{4}})
	if len(tr.Events) == 0 {
		t.Fatal("no events recorded")
	}
	if tr.Clock != "sim-ns" {
		t.Fatalf("clock = %q", tr.Clock)
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range tr.Events {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{
		obs.EvEnqStart, obs.EvEnqEnd, obs.EvDeqStart, obs.EvDeqEnd,
		obs.EvTxBegin, obs.EvTxAbort, obs.EvBasketOpen, obs.EvBasketClose,
		obs.EvCohGetM,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events", k)
		}
	}
	if got, want := kinds[obs.EvEnqStart], 4*60; got != want {
		t.Errorf("enq_start = %d, want %d", got, want)
	}
	if tr.MetaInt("cores_per_socket", 0) <= 0 || len(tr.LaneCores()) != 8 {
		t.Errorf("meta incomplete: %v", tr.Meta)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d != %d", len(back.Events), len(tr.Events))
	}

	a := trace.Analyze(back, trace.AnalyzeOptions{})
	if a.Enq.Count == 0 || a.Baskets.Opened == 0 {
		t.Fatalf("analysis empty: enq=%d baskets=%d", a.Enq.Count, a.Baskets.Opened)
	}
	if a.Format() == "" {
		t.Fatal("empty report")
	}
}

// TestRunTraceTxCASChains records the §3.4.1 cross-socket TxCAS regime
// and checks the analyzer reconstructs a tripped-writer chain-length
// distribution from it — the acceptance bar for the tracing pipeline.
func TestRunTraceTxCASChains(t *testing.T) {
	tr := TraceTxCAS(Options{OpsPerThread: 80, ThreadCounts: []int{4}})
	a := trace.Analyze(tr, trace.AnalyzeOptions{})
	if a.Chains.TrippedAborts == 0 {
		t.Fatal("no tripped-writer aborts in the cross-socket TxCAS regime")
	}
	if a.Chains.Chains == 0 || len(a.Chains.Dist) == 0 {
		t.Fatalf("no chains reconstructed: %+v", a.Chains)
	}
	total := 0
	for length, n := range a.Chains.Dist {
		if length <= 0 || n <= 0 {
			t.Fatalf("bad distribution entry %d:%d", length, n)
		}
		total += length * n
	}
	if total != a.Chains.TrippedAborts {
		t.Fatalf("distribution accounts for %d of %d tripped aborts", total, a.Chains.TrippedAborts)
	}
}
