package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// figurePin is one pinned point: a workload's result for a series at a
// thread count.
type figurePin struct {
	workload string
	series   string
	threads  int
	nsPerOp  float64
}

// TestFiguresPinned pins the simulated figures across commits.
// TestRunDeterministic compares two runs of one build; this test compares
// each Result.NSPerOp bit for bit with a value recorded from an earlier
// build. A change that should leave the model alone (a refactor of TxCAS,
// a queue or the harness) but moves one random draw, one delay or one
// coherence message fails here.
//
// After an intended model change, re-record the pins: run
//
//	go test -run '^TestFiguresPinned$' ./internal/harness
//
// and replace the table below with the one the failure prints.
func TestFiguresPinned(t *testing.T) {
	pins := []figurePin{
		{"fig1", "FAA", 2, 16.84},
		{"fig1", "FAA", 8, 125.34},
		{"fig1", "TxCAS", 2, 313.03000000000003},
		{"fig1", "TxCAS", 8, 313.6},
		{"enq", "SBQ-HTM", 2, 393.51},
		{"enq", "SBQ-HTM", 8, 399.24375},
		{"enq", "SBQ-CAS", 2, 391.175},
		{"enq", "SBQ-CAS", 8, 450.36499999999995},
		{"enq", "SBQ-HTM-PB", 2, 393.51},
		{"enq", "SBQ-HTM-PB", 8, 399.24375},
	}
	var got []figurePin
	for _, w := range []Workload{
		Fig1{},
		EnqueueOnly{Variants: []Variant{SBQHTM, SBQCAS, SBQHTMPart}},
	} {
		for _, r := range Run(w, tiny()).Results {
			got = append(got, figurePin{w.Name(), r.Series, r.Threads, r.NSPerOp})
		}
	}
	same := len(got) == len(pins)
	for i := 0; same && i < len(got); i++ {
		g, p := got[i], pins[i]
		same = g.workload == p.workload && g.series == p.series && g.threads == p.threads &&
			math.Float64bits(g.nsPerOp) == math.Float64bits(p.nsPerOp)
	}
	if same {
		return
	}
	var b strings.Builder
	for _, g := range got {
		fmt.Fprintf(&b, "\t\t{%q, %q, %d, %s},\n", g.workload, g.series, g.threads,
			strconv.FormatFloat(g.nsPerOp, 'g', -1, 64))
	}
	t.Errorf("simulated figures moved from their pins; if the model change is intended, re-record:\n%s", b.String())
}
