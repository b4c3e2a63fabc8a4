package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// figurePin is one pinned point: an experiment's result for a series at a
// thread count.
type figurePin struct {
	experiment string
	series     string // Result.Series, FixResult.Label, or "policy scenario"
	threads    int    // 0 for the fix ablation, which runs 6 threads per socket
	nsPerOp    float64
	tripped    uint64 // FixResult.TrippedWriters; 0 elsewhere
}

// TestFiguresPinned pins the simulated figures across commits.
// TestRunDeterministic compares two runs of one build; this test compares
// each NSPerOp bit for bit with a value recorded from an earlier build,
// for every experiment that feeds a figure: Fig1, EnqueueOnly
// (figure 5), DequeueOnly (figure 6 and the §8 extension), Mixed
// (figure 7), the delay and basket sweeps, the fix ablation with its
// tripped-writer count, and the fault sweep per policy and scenario. A
// change that should leave the model alone (a refactor of TxCAS, a queue
// or the harness) but moves one random draw, one delay or one coherence
// message fails here.
//
// After an intended model change, re-record the pins: run
//
//	go test -run '^TestFiguresPinned$' ./internal/harness
//
// and replace the table below with the one the failure prints.
func TestFiguresPinned(t *testing.T) {
	pins := []figurePin{
		{"fig1", "FAA", 2, 16.84, 0},
		{"fig1", "FAA", 8, 125.34, 0},
		{"fig1", "TxCAS", 2, 313.03000000000003, 0},
		{"fig1", "TxCAS", 8, 313.6, 0},
		{"enq", "SBQ-HTM", 2, 393.51, 0},
		{"enq", "SBQ-HTM", 8, 399.24375, 0},
		{"enq", "SBQ-CAS", 2, 391.175, 0},
		{"enq", "SBQ-CAS", 8, 450.36499999999995, 0},
		{"enq", "SBQ-HTM-PB", 2, 393.51, 0},
		{"enq", "SBQ-HTM-PB", 8, 399.24375, 0},
		{"deq", "SBQ-HTM", 2, 216.825, 0},
		{"deq", "SBQ-HTM", 8, 247.68625000000003, 0},
		{"deq", "SBQ-HTM-PB", 2, 230.14499999999998, 0},
		{"deq", "SBQ-HTM-PB", 8, 274.075, 0},
		{"deq", "WF-Queue", 2, 60.745000000000005, 0},
		{"deq", "WF-Queue", 8, 222.96750000000003, 0},
		{"mixed", "BQ-Original", 2, 308.34000000000003, 0},
		{"mixed", "BQ-Original", 8, 1292.8200000000002, 0},
		{"mixed", "CC-Queue", 2, 897.0799999999999, 0},
		{"mixed", "CC-Queue", 8, 2555.83, 0},
		{"mixed", "SBQ-CAS", 2, 576.52, 0},
		{"mixed", "SBQ-CAS", 8, 941.43, 0},
		{"mixed", "SBQ-HTM", 2, 587.4399999999999, 0},
		{"mixed", "SBQ-HTM", 8, 901.6299999999999, 0},
		{"mixed", "WF-Queue", 2, 65.36, 0},
		{"mixed", "WF-Queue", 8, 353.19, 0},
		{"delay", "delay=0ns", 2, 45.1, 0},
		{"delay", "delay=0ns", 8, 167.90125, 0},
		{"delay", "delay=270ns", 2, 313.03000000000003, 0},
		{"delay", "delay=270ns", 8, 313.6, 0},
		{"basket", "B=8", 8, 396.03375, 0},
		{"basket", "B=44", 8, 399.24375, 0},
		{"fix", "no-delay", 0, 8473.200833333332, 660},
		{"fix", "no-delay+fix", 0, 924.9275, 0},
		{"fix", "cross-socket-delay", 0, 380.2983333333333, 0},
		{"faults", "immediate p=0.00", 8, 399.24375, 0},
		{"faults", "immediate p=0.20", 8, 405.02375, 0},
		{"faults", "immediate disabled", 8, 252.5975, 0},
		{"faults", "backoff p=0.00", 8, 399.24375, 0},
		{"faults", "backoff p=0.20", 8, 415.30375000000004, 0},
		{"faults", "backoff disabled", 8, 252.5975, 0},
		{"faults", "budget8 p=0.00", 8, 399.24375, 0},
		{"faults", "budget8 p=0.20", 8, 405.02375, 0},
		{"faults", "budget8 disabled", 8, 252.5975, 0},
		{"faults", "delayed-cas p=0.00", 8, 425.505, 0},
		{"faults", "delayed-cas p=0.20", 8, 425.505, 0},
		{"faults", "delayed-cas disabled", 8, 425.505, 0},
	}
	o := tiny()
	var got []figurePin
	add := func(experiment string, rs []Result) {
		for _, r := range rs {
			got = append(got, figurePin{experiment, r.Series, r.Threads, r.NSPerOp, 0})
		}
	}
	add("fig1", Fig1(o))
	add("enq", EnqueueOnly([]Variant{SBQHTM, SBQCAS, SBQHTMPart}, o))
	add("deq", DequeueOnly([]Variant{SBQHTM, SBQHTMPart, WFQueue}, o))
	add("mixed", Mixed(AllVariants, o))
	add("delay", DelaySweep([]float64{0, 270}, []int{2, 8}, o))
	add("basket", BasketSweep([]int{8, 44}, 8, o))
	for _, r := range FixAblation(o) {
		got = append(got, figurePin{"fix", r.Label, 0, r.NSPerOp, r.TrippedWriters})
	}
	for _, r := range FaultSweep(8, []float64{0, 0.2}, o) {
		got = append(got, figurePin{"faults", r.Policy + " " + r.Scenario, r.Threads, r.NSPerOp, 0})
	}
	same := len(got) == len(pins)
	for i := 0; same && i < len(got); i++ {
		g, p := got[i], pins[i]
		same = g.experiment == p.experiment && g.series == p.series && g.threads == p.threads &&
			math.Float64bits(g.nsPerOp) == math.Float64bits(p.nsPerOp) && g.tripped == p.tripped
	}
	if same {
		return
	}
	var b strings.Builder
	for _, g := range got {
		fmt.Fprintf(&b, "\t\t{%q, %q, %d, %s, %d},\n", g.experiment, g.series, g.threads,
			strconv.FormatFloat(g.nsPerOp, 'g', -1, 64), g.tripped)
	}
	t.Errorf("simulated figures moved from their pins; if the model change is intended, re-record:\n%s", b.String())
}
