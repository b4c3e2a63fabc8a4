package benchjson

import (
	"bytes"
	"strings"
	"testing"
)

func sample(ns float64) *File {
	f := New()
	f.CreatedAt = "2026-01-01T00:00:00Z"
	f.Results = []Result{
		{Impl: "SBQ-DCAS", Workload: "mixed", Threads: 4, Ops: 1000, NSPerOp: ns},
		{Impl: "MS-Queue", Workload: "mixed", Threads: 4, Ops: 1000, NSPerOp: 2 * ns},
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sample(100)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Results) != 2 || got.Results[0] != f.Results[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadRejectsForeignSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("want schema error")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Fatal("want parse error")
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	old, new := sample(100), sample(100)
	new.Results[0].NSPerOp = 125 // 25% slower: regression
	new.Results[1].NSPerOp = 150 // 25% faster: improvement, not flagged
	rep := Diff(old, new, 0.10)
	if len(rep.Deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(rep.Deltas))
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Impl != "MS-Queue" && regs[0].Impl != "SBQ-DCAS" {
		t.Fatalf("regressions = %+v", regs)
	}
	if regs[0].Impl != "SBQ-DCAS" || regs[0].Ratio != 1.25 {
		t.Fatalf("wrong regression: %+v", regs[0])
	}
	out := rep.Format()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "(improved)") {
		t.Fatalf("format missing markers:\n%s", out)
	}
	if !strings.Contains(out, "1 regression(s)") {
		t.Fatalf("format missing verdict:\n%s", out)
	}
}

func TestDiffWithinNoise(t *testing.T) {
	old, new := sample(100), sample(100)
	new.Results[0].NSPerOp = 105 // 5% slower: within the 10% threshold
	rep := Diff(old, new, 0)     // 0 selects DefaultThreshold
	if rep.Threshold != DefaultThreshold {
		t.Fatalf("threshold = %v", rep.Threshold)
	}
	if n := len(rep.Regressions()); n != 0 {
		t.Fatalf("regressions = %d, want 0", n)
	}
	if !strings.Contains(rep.Format(), "no regressions") {
		t.Fatalf("format:\n%s", rep.Format())
	}
}

func TestDiffUnmatchedCellsAndEnv(t *testing.T) {
	old, new := sample(100), sample(100)
	old.Results = append(old.Results, Result{Impl: "LCRQ", Workload: "mixed", Threads: 8, NSPerOp: 50})
	new.Results = append(new.Results, Result{Impl: "FAAQ", Workload: "mixed", Threads: 8, NSPerOp: 60})
	new.NumCPU = old.NumCPU + 1
	rep := Diff(old, new, 0.10)
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0].Impl != "LCRQ" {
		t.Fatalf("only-old = %+v", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0].Impl != "FAAQ" {
		t.Fatalf("only-new = %+v", rep.OnlyNew)
	}
	if !rep.EnvDiffer {
		t.Fatal("EnvDiffer should be set")
	}
	out := rep.Format()
	if !strings.Contains(out, "baseline only") || !strings.Contains(out, "no baseline") ||
		!strings.Contains(out, "environments differ") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestTxCASCells(t *testing.T) {
	// Cells measured under different speculation windows are distinct:
	// a -txcas sweep must not collapse into one baseline key.
	a := Result{Impl: "SBQ-TxCAS", Workload: "mixed", Threads: 4, NSPerOp: 100}
	b := a
	b.TxWindowNS = 270
	if a.key() == b.key() {
		t.Fatalf("window ignored by key: %q", a.key())
	}
	if got := b.label(); !strings.Contains(got, "w=270ns") {
		t.Fatalf("label = %q, want window dimension", got)
	}
	if got := a.label(); strings.Contains(got, "w=") {
		t.Fatalf("default-window label = %q, want no window dimension", got)
	}

	// Telemetry counters round-trip but never affect the comparison: two
	// runs with identical ns/op and wildly different counters diff clean.
	old, new := sample(100), sample(100)
	old.Results[0].Impl, new.Results[0].Impl = "SBQ-TxCAS", "SBQ-TxCAS"
	new.Results[0].CASAttempts = 5000
	new.Results[0].CASFailures = 40
	new.Results[0].TxSoftAborts = 960
	new.Results[0].TxSharerHints = 960
	new.Results[0].CASFailureRate = 0.008
	var buf bytes.Buffer
	if err := new.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0] != new.Results[0] {
		t.Fatalf("telemetry fields did not round-trip: %+v", got.Results[0])
	}
	rep := Diff(old, new, 0.10)
	if len(rep.Regressions()) != 0 || len(rep.OnlyNew) != 0 || len(rep.OnlyOld) != 0 {
		t.Fatalf("telemetry leaked into comparison: %+v", rep)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old, new := sample(100), sample(100)
	old.Results[0].NSPerOp = 0
	rep := Diff(old, new, 0.10)
	for _, d := range rep.Deltas {
		if d.OldNSPerOp == 0 && (d.Regressed || d.Ratio != 0) {
			t.Fatalf("zero baseline mishandled: %+v", d)
		}
	}
}

// TestPooledBaselineCellsStayApart: BENCH_PR7.json lists each pooled-mode
// cell right after its GC-mode twin, under the same impl, workload and
// threads. Runs made since pooled mode was deleted measure GC mode only,
// so their cells must match the GC twin; a key without the pooled field
// would let the later pooled cell win the match.
func TestPooledBaselineCellsStayApart(t *testing.T) {
	old, err := Read(strings.NewReader(`{"schema":"sbqbench/v1","results":[
		{"impl":"SBQ-CAS","workload":"mixed","threads":2,"ops_per_thread":20000,"ns_per_op":100},
		{"impl":"SBQ-CAS","workload":"mixed","threads":2,"pooled":true,"ops_per_thread":20000,"ns_per_op":400}]}`))
	if err != nil {
		t.Fatal(err)
	}
	new := &File{Schema: Schema, Results: []Result{
		{Impl: "SBQ-CAS", Workload: "mixed", Threads: 2, Ops: 20000, NSPerOp: 110},
	}}
	rep := Diff(old, new, 0.10)
	if len(rep.Deltas) != 1 || rep.Deltas[0].OldNSPerOp != 100 {
		t.Fatalf("deltas = %+v, want one against the GC cell's 100 ns/op", rep.Deltas)
	}
	if len(rep.OnlyOld) != 1 || !rep.OnlyOld[0].Pooled {
		t.Fatalf("only-old = %+v, want the pooled cell", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 0 {
		t.Fatalf("only-new = %+v", rep.OnlyNew)
	}
}
