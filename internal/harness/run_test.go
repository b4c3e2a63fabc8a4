package harness

import (
	"reflect"
	"testing"

	"repro/internal/machine"
)

// Determinism: the simulator is deterministic for equal (Options,
// experiment), so running each experiment twice must give deeply equal
// results. sbqsim's byte-identical output rests on this.

func tiny() Options {
	return Options{OpsPerThread: 40, Reps: 1, ThreadCounts: []int{2, 8}}
}

func TestRunDeterministic(t *testing.T) {
	o := tiny()
	vs := []Variant{SBQHTM, WFQueue}
	for _, e := range []struct {
		name string
		run  func() any
	}{
		{"fig1", func() any { return Fig1(o) }},
		{"enq", func() any { return EnqueueOnly(vs, o) }},
		{"deq", func() any { return DequeueOnly(vs, o) }},
		{"mixed", func() any { return Mixed(vs, o) }},
		{"delay", func() any { return DelaySweep([]float64{0, 270}, []int{8}, o) }},
		{"basket", func() any { return BasketSweep([]int{8, 44}, 8, o) }},
		{"fix", func() any { return FixAblation(o) }},
		{"telemetry", func() any { return Telemetry(vs, o) }},
		{"trace", func() any { return TraceQueue(SBQHTM, o) }},
		{"trace-txcas", func() any { return TraceTxCAS(o) }},
		{"faults", func() any { return FaultSweep(2, []float64{0, 0.2}, o) }},
	} {
		t.Run(e.name, func(t *testing.T) {
			a, b := e.run(), e.run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: two runs diverged:\nfirst:  %+v\nsecond: %+v", e.name, a, b)
			}
		})
	}
}

// The fault sweep must be well-formed (one row per policy × scenario, in
// order, baseline slowdown 1.0) and its degradation bounded: even with HTM
// disabled outright, fallback-capable policies stay within a small constant
// factor of their fault-free baseline — the sweep's whole point is that the
// system degrades gracefully instead of livelocking.
func TestFaultSweepShape(t *testing.T) {
	probs := []float64{0, 0.5}
	res := FaultSweep(4, probs, tiny())

	policies := DefaultPolicies()
	scenariosPer := len(probs) + 1 // + the disabled endpoint
	if len(res) != len(policies)*scenariosPer {
		t.Fatalf("got %d rows, want %d policies x %d scenarios", len(res), len(policies), scenariosPer)
	}
	for i, r := range res {
		pol := policies[i/scenariosPer]
		if r.Policy != pol.Name {
			t.Fatalf("row %d policy %q, want %q (rows out of order)", i, r.Policy, pol.Name)
		}
		if r.NSPerOp <= 0 || r.Mops <= 0 {
			t.Errorf("%s/%s: nonpositive measurement %+v", r.Policy, r.Scenario, r)
		}
		switch i % scenariosPer {
		case 0: // fault-free baseline
			if r.Slowdown != 1 {
				t.Errorf("%s baseline slowdown = %.2f, want 1", r.Policy, r.Slowdown)
			}
			if r.FaultsInjected != 0 {
				t.Errorf("%s baseline injected %d faults", r.Policy, r.FaultsInjected)
			}
		case 1: // p=0.50
			if r.AbortProb != 0.5 || r.Disabled {
				t.Errorf("%s row %d mislabeled: %+v", r.Policy, i, r)
			}
			// delayed-cas never speculates, so nothing to inject into.
			if r.Policy != "delayed-cas" && r.FaultsInjected == 0 {
				t.Errorf("%s p=0.50: no faults injected", r.Policy)
			}
		case 2: // disabled endpoint
			if !r.Disabled {
				t.Errorf("%s row %d should be the disabled endpoint: %+v", r.Policy, i, r)
			}
			if r.Policy != "delayed-cas" && r.Fallbacks == 0 {
				t.Errorf("%s disabled: appends resolved without fallbacks?", r.Policy)
			}
			// Refused _xbegins still count as started-then-aborted, so the
			// abort rate pins at 1 for HTM-attempting policies; delayed-cas
			// never speculates and reports 0.
			want := 1.0
			if r.Policy == "delayed-cas" {
				want = 0
			}
			if r.AbortRate != want {
				t.Errorf("%s disabled: abort rate %.2f, want %.0f", r.Policy, r.AbortRate, want)
			}
			// The graceful-degradation gate: disabled HTM must not cost more
			// than a small constant factor over the fault-free baseline.
			if r.Slowdown > 8 {
				t.Errorf("%s disabled slowdown %.2fx exceeds bound 8x", r.Policy, r.Slowdown)
			}
		}
	}
}

// Options.Faults composes with the figure experiments: any experiment runs
// under a fault plan, and a disabled-HTM plan forces the TxCAS variants
// onto the fallback path without changing the result shape.
func TestFigureWorkloadsComposeWithFaults(t *testing.T) {
	o := tiny()
	o.Faults = machine.FaultPlan{DisableHTM: true}
	res := EnqueueOnly([]Variant{SBQHTM, SBQCAS}, o)
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	for _, r := range res {
		if r.NSPerOp <= 0 {
			t.Errorf("nonpositive latency under faults: %+v", r)
		}
	}
}
