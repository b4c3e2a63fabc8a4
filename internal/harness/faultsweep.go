package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/machine/policy"
	"repro/internal/stats"
)

// This file implements the fault sweep: abort-rate vs throughput curves for
// SBQ under injected HTM faults, one curve per retry/fallback policy. It is
// the experiment the paper cannot run — its HTM always eventually commits —
// and the one a production deployment needs: what does SBQ cost when
// transactions abort spuriously, and does it degrade gracefully (bounded
// slowdown, software fallback) when a microcode update turns HTM off?

// PolicySpec names one retry/fallback policy for the sweep. A nil Policy
// selects TxCAS's legacy tuned loop (jittered immediate retry with the
// MaxRetries-then-fallback progression).
type PolicySpec struct {
	Name   string
	Policy policy.RetryPolicy
}

// DefaultPolicies is the sweep's standard lineup: the legacy loop, the
// policy-engine equivalents of its regimes, Brown's bounded-attempts
// template, and the paper's §4.1 software delayed-CAS.
func DefaultPolicies() []PolicySpec {
	return []PolicySpec{
		{Name: "legacy", Policy: nil},
		{Name: "immediate", Policy: policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}},
		{Name: "backoff", Policy: policy.ExponentialBackoff{Base: 64, Max: 4096}},
		{Name: "budget8", Policy: policy.AbortBudget{
			Budget: 8, Inner: policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}}},
		{Name: "delayed-cas", Policy: policy.DelayedCAS{
			Delay: core.DefaultDelay, Jitter: core.DefaultDelayJitter}},
	}
}

// FaultSweep measures enqueue throughput of one variant at a fixed thread
// count across injected-fault scenarios — a spurious-abort probability
// curve plus the HTM-disabled endpoint — once per policy. Populates
// Output.Faults.
type FaultSweep struct {
	// Variant is the queue under test; default SBQHTM.
	Variant Variant
	// Threads is the producer count; default 8.
	Threads int
	// AbortProbs are the spurious-abort probabilities to sweep; default
	// {0, 0.05, 0.2, 0.5}. A leading 0 gives each policy its fault-free
	// baseline, which Slowdown is computed against.
	AbortProbs []float64
	// SkipDisabled omits the HTM-disabled endpoint.
	SkipDisabled bool
	// Policies is the policy lineup; default DefaultPolicies().
	Policies []PolicySpec
}

// Name implements Workload.
func (FaultSweep) Name() string { return "faults" }

func (w FaultSweep) run(o Options) Output { return Output{Faults: runFaultSweep(w, o)} }

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
	// fault-free baseline when AbortProbs starts at 0).
	Slowdown float64
}

func runFaultSweep(w FaultSweep, o Options) []FaultResult {
	o = o.withDefaults()
	if w.Variant == "" {
		w.Variant = SBQHTM
	}
	if w.Threads == 0 {
		w.Threads = 8
	}
	if len(w.AbortProbs) == 0 {
		w.AbortProbs = []float64{0, 0.05, 0.2, 0.5}
	}
	if len(w.Policies) == 0 {
		w.Policies = DefaultPolicies()
	}

	type scenario struct {
		label    string
		prob     float64
		disabled bool
	}
	var scenarios []scenario
	for _, p := range w.AbortProbs {
		scenarios = append(scenarios, scenario{label: fmt.Sprintf("p=%.2f", p), prob: p})
	}
	if !w.SkipDisabled {
		scenarios = append(scenarios, scenario{label: "disabled", disabled: true})
	}

	var out []FaultResult
	for _, ps := range w.Policies {
		baseline := 0.0
		for _, sc := range scenarios {
			r := w.measure(ps, sc.prob, sc.disabled, o)
			r.Scenario = sc.label
			if baseline == 0 {
				baseline = r.NSPerOp
			}
			if baseline > 0 {
				r.Slowdown = r.NSPerOp / baseline
			}
			out = append(out, r)
			o.progress("faults %s %s: %.0f ns/op (x%.2f) abort-rate=%.2f fallbacks=%d\n",
				r.Policy, r.Scenario, r.NSPerOp, r.Slowdown, r.AbortRate, r.Fallbacks)
		}
	}
	return out
}

// measure runs the enqueue-only workload for one (policy, scenario) point.
func (w FaultSweep) measure(ps PolicySpec, prob float64, disabled bool, o Options) FaultResult {
	n := w.Threads
	var ns []float64
	var mstats machine.Stats
	for rep := 0; rep < o.Reps; rep++ {
		o2 := o
		o2.Faults.SpuriousAbortProb = prob
		o2.Faults.DisableHTM = o.Faults.DisableHTM || disabled
		m := o2.newMachine(uint64(rep) + 1)
		if n > m.Config().CoresPerSocket {
			n = m.Config().CoresPerSocket
		}
		copt := o.coreOptions()
		copt.Policy = ps.Policy
		q := buildQueue(m, w.Variant, n, n, o.BasketSize, nil, copt)
		var cycles uint64
		for t := 0; t < n; t++ {
			t := t
			m.Go(t, func(p *machine.Proc) {
				p.Delay(p.RandN(200))
				start := p.Now()
				for i := 0; i < o.OpsPerThread; i++ {
					q.Enqueue(p, t, element(t, i))
				}
				cycles += p.Now() - start
			})
		}
		m.Run()
		perOp := float64(cycles) / float64(n*o.OpsPerThread)
		ns = append(ns, m.Config().NSPerOp(perOp))
		mstats.TxStarted += m.Stats.TxStarted
		mstats.TxAborts += m.Stats.TxAborts
		mstats.CASFallbacks += m.Stats.CASFallbacks
		mstats.FaultsInjected += m.Stats.FaultsInjected
	}
	s := stats.Summarize(ns)
	r := FaultResult{
		Policy:    ps.Name,
		AbortProb: prob,
		Disabled:  disabled,
		Threads:   n,
		NSPerOp:   s.Mean,
		Mops:      1e3 * float64(n) / s.Mean,
		Fallbacks: mstats.CASFallbacks, FaultsInjected: mstats.FaultsInjected,
	}
	if mstats.TxStarted > 0 {
		r.AbortRate = float64(mstats.TxAborts) / float64(mstats.TxStarted)
	}
	return r
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
