package simqueue

import (
	"testing"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/machine"
	"repro/internal/machine/policy"
)

// The ISSUE's HTM-disabled gate: SBQ built on policy-paced TxCAS must stay
// linearizable and deliver every element when the injector refuses every
// _xbegin (the TSX-microcode-disabled scenario) — every append resolved by
// the software-fallback CAS.

// runSBQFaulty runs the mixed producer/consumer workload on an SBQ-HTM
// whose TxCAS is paced by pol, under the given fault plan, and checks
// delivery and linearizability.
func runSBQFaulty(t *testing.T, plan machine.FaultPlan, pol policy.RetryPolicy) *machine.Machine {
	t.Helper()
	const producers, consumers, per = 6, 3, 25
	threads := producers + consumers
	cfg := machine.Default()
	cfg.Faults = plan
	m := machine.New(cfg)
	opt := core.DefaultOptions()
	opt.Policy = pol
	q := NewSBQ(m, SBQOptions{
		BasketSize: producers, Enqueuers: producers, Threads: threads,
		Append: core.New(opt).Do,
	})
	histories := make([][]linearize.Op, threads)
	left := producers
	for pi := 0; pi < producers; pi++ {
		pi := pi
		m.Go(pi, func(p *machine.Proc) {
			p.Delay(p.RandN(200))
			for i := 0; i < per; i++ {
				start := p.Now()
				q.Enqueue(p, pi, value(pi, i))
				histories[pi] = append(histories[pi], linearize.Op{
					Kind: linearize.Enq, Value: value(pi, i), Start: start, End: p.Now(),
				})
			}
			left--
		})
	}
	want := producers * per
	got := 0
	for ci := 0; ci < consumers; ci++ {
		tid := producers + ci
		m.Go(tid, func(p *machine.Proc) {
			for got < want || left > 0 {
				start := p.Now()
				v, ok := q.Dequeue(p, tid)
				op := linearize.Op{Kind: linearize.Deq, Start: start, End: p.Now()}
				if ok {
					op.Value = v
					got++
				} else {
					op.Empty = true
					p.Delay(200)
				}
				histories[tid] = append(histories[tid], op)
			}
		})
	}
	m.Run()
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	var all []linearize.Op
	for _, h := range histories {
		all = append(all, h...)
	}
	if v := linearize.Check(all); v != nil {
		t.Fatal(v)
	}
	return m
}

func TestSBQHTMLinearizableWithHTMDisabled(t *testing.T) {
	pol := policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}
	m := runSBQFaulty(t, machine.FaultPlan{DisableHTM: true}, pol)
	if m.Stats.TxCommits != 0 {
		t.Fatalf("TxCommits = %d with HTM disabled, want 0", m.Stats.TxCommits)
	}
	if m.Stats.CASFallbacks == 0 {
		t.Fatal("no software fallbacks recorded: appends resolved by what?")
	}
	if m.Stats.TxAbortDisabled == 0 {
		t.Fatal("no disabled aborts recorded")
	}
}

// The microcode update landing mid-run: HTM commits early, is disabled at
// the trip point, and the queue keeps delivering on the fallback path.
func TestSBQHTMSurvivesMidRunDisablement(t *testing.T) {
	pol := policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}
	m := runSBQFaulty(t, machine.FaultPlan{DisableHTMAfter: 40, CrossSocketJitter: 20}, pol)
	if !m.HTMDisabled() {
		t.Fatal("run finished before the DisableHTMAfter trip point; raise the workload size")
	}
	if m.Stats.TxCommits == 0 {
		t.Fatal("no transactional commits before the trip point")
	}
	if m.Stats.CASFallbacks == 0 {
		t.Fatal("no software fallbacks after the trip point")
	}
}

// Stress the same shape under heavy spurious aborts plus cross-socket
// jitter, through each remaining built-in policy.
func TestSBQHTMPolicyStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	policies := map[string]policy.RetryPolicy{
		"backoff":     policy.ExponentialBackoff{Base: 64, Max: 4096},
		"budget8":     policy.AbortBudget{Budget: 8, Inner: policy.ImmediateRetry{Jitter: core.DefaultRetryJitter}},
		"delayed-cas": policy.DelayedCAS{Delay: core.DefaultDelay, Jitter: core.DefaultDelayJitter},
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			runSBQFaulty(t, machine.FaultPlan{SpuriousAbortProb: 0.4, CrossSocketJitter: 30}, pol)
		})
	}
}
