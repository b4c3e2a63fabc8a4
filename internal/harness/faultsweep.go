package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/machine/policy"
)

// This file implements the fault sweep: abort-rate vs throughput curves for
// SBQ under injected HTM faults, one curve per retry/fallback policy. It is
// the experiment the paper cannot run — its HTM always eventually commits —
// and the one a production deployment needs: what does SBQ cost when
// transactions abort spuriously, and does it degrade gracefully (bounded
// slowdown, software fallback) when a microcode update turns HTM off?

// PolicySpec names one retry/fallback policy for the sweep. Policy paces
// every TxCAS of the run (core.Options.Policy).
type PolicySpec struct {
	Name   string
	Policy policy.RetryPolicy
}

// DefaultPolicies is the sweep's standard lineup: TxCAS's default policy
// (jittered immediate retry, the tuned loop every figure runs), randomized
// exponential backoff, Brown's bounded-attempts template, and the paper's
// §4.1 software delayed-CAS.
func DefaultPolicies() []PolicySpec {
	return []PolicySpec{
		{Name: "immediate", Policy: policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}},
		{Name: "backoff", Policy: policy.ExponentialBackoff{Base: 64, Max: 4096}},
		{Name: "budget8", Policy: policy.AbortBudget{
			Budget: 8, Inner: policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}}},
		{Name: "delayed-cas", Policy: policy.DelayedCAS{
			Delay: core.DefaultDelay, Jitter: core.DefaultDelayJitter}},
	}
}

// FaultResult is one (policy, fault scenario) point of the sweep.
type FaultResult struct {
	Policy   string
	Scenario string // "p=0.05" for a spurious-abort probability, "disabled"
	// AbortProb is the injected spurious-abort probability (0 for the
	// disabled scenario, where no transaction ever starts speculating).
	AbortProb float64
	// Disabled marks the HTM-disabled endpoint.
	Disabled bool
	Threads  int
	NSPerOp  float64
	Mops     float64
	// AbortRate is aborted/started hardware transactions, summed over reps.
	AbortRate float64
	// Fallbacks counts operations resolved by the software fallback CAS,
	// summed over reps; FaultsInjected counts injector-produced faults.
	Fallbacks      uint64
	FaultsInjected uint64
	// Slowdown is NSPerOp relative to this policy's first scenario (the
	// fault-free baseline when abortProbs starts at 0).
	Slowdown float64
}

// FaultSweep measures SBQ-HTM enqueue throughput with threads producers
// (at most one socket's worth) across injected-fault scenarios, once per
// policy of DefaultPolicies: a curve over the spurious-abort
// probabilities abortProbs, then the HTM-disabled endpoint. A leading 0 in
// abortProbs gives each policy its fault-free baseline, which Slowdown is
// computed against.
func FaultSweep(threads int, abortProbs []float64, o Options) []FaultResult {
	o = o.withDefaults()
	// Clamped to one socket, so point measures every scenario below.
	threads = min(threads, machine.Default().CoresPerSocket)
	type scenario struct {
		label    string
		prob     float64
		disabled bool
	}
	var scenarios []scenario
	for _, p := range abortProbs {
		scenarios = append(scenarios, scenario{label: fmt.Sprintf("p=%.2f", p), prob: p})
	}
	scenarios = append(scenarios, scenario{label: "disabled", disabled: true})

	var out []FaultResult
	for _, ps := range DefaultPolicies() {
		copt := core.DefaultOptions()
		copt.Policy = ps.Policy
		baseline := 0.0
		for _, sc := range scenarios {
			o2 := o
			o2.Faults.SpuriousAbortProb = sc.prob
			o2.Faults.DisableHTM = o.Faults.DisableHTM || sc.disabled
			var ms machine.Stats
			p := o2.point(nil, "faults", ps.Name+" "+sc.label, threads, threads, func(m *machine.Machine) float64 {
				ns := o.enqueue(m, SBQHTM, threads, paperBasket, copt)
				ms.TxStarted += m.Stats.TxStarted
				ms.TxAborts += m.Stats.TxAborts
				ms.CASFallbacks += m.Stats.CASFallbacks
				ms.FaultsInjected += m.Stats.FaultsInjected
				return ns
			})[0]
			r := FaultResult{
				Policy: ps.Name, Scenario: sc.label, AbortProb: sc.prob, Disabled: sc.disabled,
				Threads: threads, NSPerOp: p.NSPerOp, Mops: p.Mops,
				Fallbacks: ms.CASFallbacks, FaultsInjected: ms.FaultsInjected,
			}
			if ms.TxStarted > 0 {
				r.AbortRate = float64(ms.TxAborts) / float64(ms.TxStarted)
			}
			if baseline == 0 {
				baseline = r.NSPerOp
			}
			if baseline > 0 {
				r.Slowdown = r.NSPerOp / baseline
			}
			out = append(out, r)
		}
	}
	return out
}

// WriteFaultSweep renders the sweep as one block per policy: a row per
// scenario with latency, throughput, slowdown, abort rate, and fallback
// counts.
func WriteFaultSweep(w io.Writer, results []FaultResult) {
	last := ""
	for _, r := range results {
		if r.Policy != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "policy %s (%d threads):\n", r.Policy, r.Threads)
			fmt.Fprintf(w, "  %-10s %10s %8s %9s %11s %10s %10s\n",
				"scenario", "ns/op", "mops", "slowdown", "abort-rate", "fallbacks", "injected")
			last = r.Policy
		}
		fmt.Fprintf(w, "  %-10s %10.1f %8.2f %8.2fx %10.1f%% %10d %10d\n",
			r.Scenario, r.NSPerOp, r.Mops, r.Slowdown, 100*r.AbortRate, r.Fallbacks, r.FaultsInjected)
	}
}
