package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func fast() Options {
	return Options{OpsPerThread: 80, Reps: 1, ThreadCounts: []int{2, 8, 24, 40}}
}

func get(results []Result, series string, threads int) (Result, bool) {
	for _, r := range results {
		if r.Series == series && r.Threads == threads {
			return r, true
		}
	}
	return Result{}, false
}

// Figure 1's qualitative content: FAA grows with contention, TxCAS stays
// roughly flat and wins at high thread counts.
func TestFig1Shapes(t *testing.T) {
	res := Fig1(fast())
	faaLow, _ := get(res, "FAA", 2)
	faaHigh, ok := get(res, "FAA", 40)
	if !ok {
		t.Fatal("missing FAA result")
	}
	txLow, _ := get(res, "TxCAS", 2)
	txMid, _ := get(res, "TxCAS", 24)
	txHigh, _ := get(res, "TxCAS", 40)
	if faaHigh.NSPerOp < 4*faaLow.NSPerOp {
		t.Errorf("FAA not linear-ish: %.0f -> %.0f", faaLow.NSPerOp, faaHigh.NSPerOp)
	}
	if txHigh.NSPerOp > 2*txMid.NSPerOp {
		t.Errorf("TxCAS not flat: 24thr %.0f -> 40thr %.0f", txMid.NSPerOp, txHigh.NSPerOp)
	}
	if txLow.NSPerOp < faaLow.NSPerOp {
		t.Errorf("TxCAS should pay its delay at low concurrency: %.0f < %.0f", txLow.NSPerOp, faaLow.NSPerOp)
	}
	if txHigh.NSPerOp > faaHigh.NSPerOp {
		t.Errorf("TxCAS should win at 40 threads: %.0f vs %.0f", txHigh.NSPerOp, faaHigh.NSPerOp)
	}
}

// Figure 5's headline: SBQ-HTM enqueues scale; it beats the FAA-based
// queue at high concurrency.
func TestFig5Shapes(t *testing.T) {
	res := EnqueueOnly([]Variant{SBQHTM, WFQueue}, fast())
	sbqHigh, ok1 := get(res, string(SBQHTM), 40)
	wfHigh, ok2 := get(res, string(WFQueue), 40)
	if !ok1 || !ok2 {
		t.Fatal("missing results")
	}
	if sbqHigh.NSPerOp > wfHigh.NSPerOp {
		t.Errorf("SBQ-HTM (%.0f ns) did not beat WF-Queue (%.0f ns) at 40 threads", sbqHigh.NSPerOp, wfHigh.NSPerOp)
	}
	sbqMid, _ := get(res, string(SBQHTM), 24)
	if sbqHigh.NSPerOp > 2*sbqMid.NSPerOp {
		t.Errorf("SBQ-HTM enqueue not flat: 24thr %.0f -> 40thr %.0f", sbqMid.NSPerOp, sbqHigh.NSPerOp)
	}
}

// Figure 6's content: dequeues don't scale for anyone; WF-Queue is the
// fastest, SBQ within a small constant factor.
func TestFig6Shapes(t *testing.T) {
	res := DequeueOnly([]Variant{SBQHTM, WFQueue}, fast())
	sbq, ok1 := get(res, string(SBQHTM), 40)
	wf, ok2 := get(res, string(WFQueue), 40)
	if !ok1 || !ok2 {
		t.Fatal("missing results")
	}
	if sbq.NSPerOp < wf.NSPerOp {
		t.Logf("note: SBQ dequeue (%.0f) beat WF-Queue (%.0f); paper has WF ahead by ~1.4x", sbq.NSPerOp, wf.NSPerOp)
	}
	if sbq.NSPerOp > 4*wf.NSPerOp {
		t.Errorf("SBQ dequeue (%.0f ns) more than 4x WF-Queue (%.0f ns); paper reports ~1.4x", sbq.NSPerOp, wf.NSPerOp)
	}
}

func TestMixedRuns(t *testing.T) {
	o := Options{OpsPerThread: 60, Reps: 1, ThreadCounts: []int{8, 40}}
	res := Mixed([]Variant{SBQHTM, WFQueue}, o)
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	for _, r := range res {
		if r.NSPerOp <= 0 {
			t.Errorf("nonpositive duration for %s/%d", r.Series, r.Threads)
		}
	}
}

func TestFixAblation(t *testing.T) {
	res := FixAblation(Options{OpsPerThread: 80, Reps: 1})
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	noFix, withFix, longDelay := res[0], res[1], res[2]
	if noFix.Fix || !withFix.Fix || longDelay.Fix {
		t.Fatal("result order wrong")
	}
	if noFix.TrippedWriters == 0 {
		t.Error("cross-socket TxCAS without post-abort delay produced no tripped writers")
	}
	if withFix.FixStalls == 0 {
		t.Error("fix enabled but no stalls recorded")
	}
	if withFix.TrippedWriters >= noFix.TrippedWriters {
		t.Errorf("fix did not reduce tripped writers: %d -> %d", noFix.TrippedWriters, withFix.TrippedWriters)
	}
	if longDelay.TrippedWriters >= noFix.TrippedWriters {
		t.Errorf("stretching the post-abort delay did not reduce tripped writers: %d -> %d",
			noFix.TrippedWriters, longDelay.TrippedWriters)
	}
}

func TestDelaySweepRuns(t *testing.T) {
	res := DelaySweep([]float64{0, 270}, []int{8, 32}, Options{OpsPerThread: 60, Reps: 1})
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestBasketSweepRuns(t *testing.T) {
	res := BasketSweep([]int{8, 44}, 8, Options{OpsPerThread: 60, Reps: 1})
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestTableCSVAndPlot(t *testing.T) {
	res := []Result{
		{Series: "A", Threads: 1, NSPerOp: 10, Mops: 0.1},
		{Series: "A", Threads: 2, NSPerOp: 20, Mops: 0.1},
		{Series: "B", Threads: 1, NSPerOp: 30, Mops: 0.03},
	}
	var tb strings.Builder
	WriteTable(&tb, res, "ns")
	out := tb.String()
	if !strings.Contains(out, "threads") || !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing cell not rendered as '-':\n%s", out)
	}
	var csv strings.Builder
	WriteCSV(&csv, res)
	if !strings.HasPrefix(csv.String(), "series,threads,") {
		t.Errorf("csv header wrong: %q", csv.String())
	}
	if got := strings.Count(csv.String(), "\n"); got != 4 {
		t.Errorf("csv rows = %d, want 4", got)
	}
	var pb strings.Builder
	Plot(&pb, res, 8)
	if !strings.Contains(pb.String(), "a=A") {
		t.Errorf("plot legend missing:\n%s", pb.String())
	}
}

func TestSpeedup(t *testing.T) {
	res := []Result{
		{Series: "A", Threads: 44, NSPerOp: 100},
		{Series: "B", Threads: 44, NSPerOp: 160},
		{Series: "A", Threads: 8, NSPerOp: 50},
	}
	s, ok := Speedup(res, "A", "B", 44)
	if !ok || s != 1.6 {
		t.Fatalf("Speedup = %v,%v; want 1.6,true", s, ok)
	}
	if _, ok := Speedup(res, "A", "B", 8); ok {
		t.Fatal("Speedup reported ok with a missing point")
	}
	if _, ok := Speedup(res, "A", "C", 44); ok {
		t.Fatal("Speedup reported ok with an unknown series")
	}
}

func TestBuildQueueAllVariants(t *testing.T) {
	for _, v := range Buildable {
		m := Options{}.newMachine(0)
		q := buildQueue(m, v, 4, 8, 44, nil, core.DefaultOptions())
		if q.Name() == "" {
			t.Errorf("variant %s has empty name", v)
		}
	}
}
