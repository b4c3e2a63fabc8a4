package harness

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// TestRunOptionComposition is the smoke test for option composition:
// Options.Faults must reach every machine an experiment builds. The seeded plan below injects spurious aborts, so the
// machine-level fault counters must come back nonzero.
func TestRunOptionComposition(t *testing.T) {
	o := Options{
		OpsPerThread: 60,
		Reps:         1,
		ThreadCounts: []int{2},
		Faults: machine.FaultPlan{
			SpuriousAbortProb: 0.5,
			Seed:              7,
		},
	}

	tel := Telemetry([]Variant{SBQHTM}, o)
	if len(tel) != 1 {
		t.Fatalf("Telemetry returned %d snapshots, want 1", len(tel))
	}
	injected := tel[0].Machine.Counter(obs.FaultsInjected)
	if injected == 0 {
		t.Fatalf("Options.Faults did not reach the simulated machine: faults_injected = 0\nmachine snapshot:\n%s",
			tel[0].Machine.String())
	}
}
