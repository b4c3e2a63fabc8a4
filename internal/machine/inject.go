package machine

import "repro/internal/obs"

// This file implements the machine's fault injector: a seeded,
// deterministic source of the HTM failure modes real deployments see but
// the paper's model assumes away. Real RTM aborts for reasons no coherence
// argument predicts (interrupts, ring transitions, power events), loses
// capacity whenever the footprint leaves L1, and — since Intel's microcode
// updates that disable TSX outright — can stop committing forever. The
// injector reproduces all of these on the simulated machine so retry and
// fallback policies (repro/internal/machine/policy) can be tested against
// them, and cross-socket latency jitter so symmetric lockstep cannot hide
// timing-dependent bugs.
//
// Determinism: the injector draws from its own xorshift stream seeded by
// FaultPlan.Seed (derived from Config.Seed when zero) and is consulted
// only from engine context, so a given (Config, program) pair replays an
// identical fault schedule — the property the seeded-replay tests assert.

// FaultPlan configures the fault injector. The zero value injects nothing;
// every field composes with the others.
type FaultPlan struct {
	// Seed perturbs the injector's random stream independently of
	// Config.Seed, so fault schedules can vary while thread timing stays
	// fixed (and vice versa). Zero derives the stream from Config.Seed.
	Seed uint64

	// SpuriousAbortProb aborts each started transaction with this
	// probability, 5 to 154 cycles into its window, for a reason carrying
	// no conflict/explicit/capacity flag — exactly what an
	// interrupt-induced abort looks like through _xbegin. 1 aborts every
	// transaction, 1.0/N about every Nth. Values are clamped to [0, 1].
	SpuriousAbortProb float64

	// CapacityLines, if nonzero, bounds a transaction's footprint: a
	// transactional access that would grow the combined read/write set
	// beyond this many cache lines aborts with AbortStatus.Capacity, as
	// real HTM does when its speculative state overflows the L1 (or a
	// hyperthread sibling halves its share). Zero means unbounded. TxCAS
	// touches one line, so the paper's workloads never hit it. A plan
	// holding only this bound draws no random numbers and counts no
	// injected faults.
	CapacityLines int

	// DisableHTM makes every transaction abort immediately at _xbegin
	// with AbortStatus.Disabled set — the TSX-disabled-by-microcode
	// scenario. Software must complete on its fallback path.
	DisableHTM bool

	// DisableHTMAfter, if nonzero, disables HTM permanently once this
	// many transactions have started: the microcode update lands mid-run
	// and every later transaction aborts at _xbegin.
	DisableHTMAfter uint64

	// CrossSocketJitter adds a uniformly random 0..N-cycle penalty to
	// every cross-socket message hop, modeling interconnect congestion.
	// Intra-socket hops are never jittered.
	CrossSocketJitter uint64
}

// enabled reports whether the plan injects anything at all.
func (f FaultPlan) enabled() bool {
	return f.SpuriousAbortProb > 0 || f.CapacityLines > 0 ||
		f.DisableHTM || f.DisableHTMAfter > 0 || f.CrossSocketJitter > 0
}

// Fault kinds carried in an EvFaultInject event arg (obs.EvFaultInject).
const (
	// FaultSpurious is an injected interrupt-style abort.
	FaultSpurious uint64 = iota + 1
	// FaultDisabled is an _xbegin refused because HTM is disabled.
	FaultDisabled
)

// injector is the per-machine fault state. A nil *injector means the plan
// is empty, keeping the common no-faults path a single nil check.
type injector struct {
	m    *Machine
	plan FaultPlan
	rng  uint64

	txSeen   uint64 // transactions started (for DisableHTMAfter)
	disabled bool   // latched once DisableHTM(After) trips
}

func newInjector(m *Machine, plan FaultPlan) *injector {
	if !plan.enabled() {
		return nil
	}
	if plan.SpuriousAbortProb < 0 {
		plan.SpuriousAbortProb = 0
	}
	if plan.SpuriousAbortProb > 1 {
		plan.SpuriousAbortProb = 1
	}
	seed := plan.Seed
	if seed == 0 {
		seed = m.cfg.Seed ^ 0xA5A5A5A55A5A5A5A
	}
	// Same scrambling as Proc rngs, with a distinct salt so the injector
	// never mirrors a thread's stream.
	seed = (seed + 1) * 0xBF58476D1CE4E5B9
	if seed == 0 {
		seed = 1
	}
	return &injector{
		m:        m,
		plan:     plan,
		rng:      seed,
		disabled: plan.DisableHTM,
	}
}

// randN returns a deterministic pseudo-random number in [0, n). Engine
// context only.
func (j *injector) randN(n uint64) uint64 {
	x := j.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	j.rng = x
	return (x * 0x2545F4914F6CDD1D) % n
}

// htmDisabled reports whether _xbegin must refuse to start a transaction.
// It latches the DisableHTMAfter trip point so disablement is persistent,
// as a microcode update would be.
func (j *injector) htmDisabled() bool {
	if j.disabled {
		return true
	}
	if j.plan.DisableHTMAfter > 0 && j.txSeen >= j.plan.DisableHTMAfter {
		j.disabled = true
	}
	return j.disabled
}

// onTxBegin is called from beginTx after a transaction started; it draws
// the spurious-abort decision and, when it fires, schedules the abort at a
// random point inside the transaction's window.
func (j *injector) onTxBegin(c *cache) {
	j.txSeen++
	p := j.plan.SpuriousAbortProb
	if p <= 0 {
		return
	}
	// 53-bit draw against the probability; deterministic and unbiased
	// enough for an injector.
	const den = 1 << 53
	if float64(j.randN(den)) >= p*den {
		return
	}
	id := c.txn.id
	delay := 5 + j.randN(150)
	j.noteInjected(FaultSpurious, c.core)
	j.m.eng.Schedule(delay, func() {
		if t := c.txn; t != nil && t.id == id {
			j.m.Stats.TxAbortSpurious++
			j.m.obsInc(obs.TxAbortsSpurious)
			c.abortTx(AbortStatus{Nested: t.depth >= 2}, false, -1, 0)
		}
	})
}

// hopJitter returns the extra latency for one message hop between the two
// sockets (zero for intra-socket hops or when jitter is off).
func (j *injector) hopJitter(socketA, socketB int) uint64 {
	if socketA == socketB || j.plan.CrossSocketJitter == 0 {
		return 0
	}
	d := j.randN(j.plan.CrossSocketJitter + 1)
	if d > 0 {
		j.m.Stats.JitteredHops++
		j.m.Stats.JitterCycles += d
		j.m.obsInc(obs.FaultHopJitter)
	}
	return d
}

// noteInjected records one injected fault in the counters and on the
// timeline (EvFaultInject, arg = fault kind).
func (j *injector) noteInjected(kind uint64, core int) {
	j.m.Stats.FaultsInjected++
	j.m.obsInc(obs.FaultsInjected)
	j.m.obsEvent(obs.EvFaultInject, core, kind)
}

// HTMDisabled reports whether the injector has (or will have, from now on)
// every transaction abort at _xbegin. Harnesses use it to label runs; the
// per-abort signal software sees is AbortStatus.Disabled.
func (m *Machine) HTMDisabled() bool {
	return m.inj != nil && m.inj.htmDisabled()
}
