package machine

import "repro/internal/obs"

// This file implements the hardware-transactional-memory layer of the
// simulated machine, modeled on Intel RTM as described in paper §2 and §3.3:
// transactional accesses mark lines in the private cache, conflicts are
// resolved requester-wins by aborting the core that receives a conflicting
// coherence message, transactional writes are store-buffered and drained by
// xend, and flat nesting is supported with an abort flag that records
// whether the conflict hit inside a nested region.

// AbortStatus describes why a transaction aborted, mirroring the abort
// reason bit mask that _xbegin returns on Intel hardware.
type AbortStatus struct {
	// Explicit is set when the transaction aborted itself (_xabort);
	// Code carries the argument.
	Explicit bool
	Code     uint8
	// Conflict is set when a conflicting coherence message caused the abort.
	Conflict bool
	// Capacity is set when the transaction's footprint overflowed the
	// configured speculative-state capacity (FaultPlan.CapacityLines).
	Capacity bool
	// Disabled is set when _xbegin refused to start the transaction
	// because HTM is disabled (FaultPlan.DisableHTM / DisableHTMAfter —
	// the TSX-killed-by-microcode scenario). Real RTM reports these as
	// zero-status aborts; the simulator additionally labels them so
	// policies and tests can distinguish persistent disablement from a
	// transient spurious abort without a CPUID round trip.
	Disabled bool
	// Nested is set when the abort hit while execution was inside a
	// nested transaction. TxCAS uses this to tell read-step conflicts
	// from write-step conflicts (paper §4.2).
	Nested bool
	// Requester is the core id of the conflicting requester whose
	// coherence message killed the transaction, or -1 when the abort had
	// no attributable requester (capacity, explicit, spurious, disabled).
	// This is the sharer identity a failed TxCAS profits from (§3): real
	// RTM does not report it, but the conflicting line's requester is
	// architecturally known at abort time and the simulator surfaces it.
	Requester int
}

// txn is an active hardware transaction on one core.
type txn struct {
	id    uint64
	proc  *Proc
	depth int // 1 = top level; >=2 inside a nested region

	readSet  map[uint64]struct{}
	writeSet map[uint64]struct{}
	writeBuf map[Addr]uint64

	// pendingW counts transactional writes whose GetM has not completed.
	// xend blocks until it reaches zero — the store-buffer drain that
	// opens the tripped-writer window.
	pendingW   int
	committing bool
	commitFn   func() // wake the proc blocked in xend

	// stalledFwd holds Fwd-GetS requests stalled by the §3.4.1 fix; they
	// are serviced after commit (or on abort).
	stalledFwd []Msg
}

func (t *txn) reads(line uint64) bool {
	_, ok := t.readSet[line]
	return ok
}

func (t *txn) writes(line uint64) bool {
	_, ok := t.writeSet[line]
	return ok
}

// beginTx starts a transaction on this core. The simulator supports one
// hardware thread per core, so at most one transaction per cache.
func (c *cache) beginTx(p *Proc) {
	if c.txn != nil {
		panic("machine: nested Transaction call (use Tx.Nested for flat nesting)")
	}
	c.m.txnIDs++
	c.txn = &txn{
		id:       c.m.txnIDs,
		proc:     p,
		depth:    1,
		readSet:  make(map[uint64]struct{}),
		writeSet: make(map[uint64]struct{}),
		writeBuf: make(map[Addr]uint64),
	}
	c.m.Stats.TxStarted++
	c.m.obsInc(obs.TxStarts)
	c.m.obsEvent(obs.EvTxBegin, c.core, c.txn.id)
	if j := c.m.inj; j != nil {
		j.onTxBegin(c)
	}
}

func (c *cache) txnID() uint64 {
	if c.txn == nil {
		return 0
	}
	return c.txn.id
}

// txOverCapacity reports whether adding line would overflow the
// transaction's speculative-state capacity.
func (c *cache) txOverCapacity(t *txn, line uint64) bool {
	j := c.m.inj
	if j == nil || j.plan.CapacityLines <= 0 {
		return false
	}
	if t.reads(line) || t.writes(line) {
		return false
	}
	return len(t.readSet)+len(t.writeSet) >= j.plan.CapacityLines
}

// txStore buffers a transactional write and issues the GetM for the line
// without blocking the core (store-buffer semantics). The written value
// becomes globally visible only at commit.
func (c *cache) txStore(addr Addr, v uint64) {
	t := c.txn
	if t == nil {
		panic("machine: txStore outside transaction")
	}
	c.m.Stats.Stores++
	line := LineOf(addr)
	t.writeSet[line] = struct{}{}
	t.writeBuf[addr] = v
	if c.lines[line] == stateM {
		c.m.Stats.StoreHits++
		return
	}
	id := t.id
	t.pendingW++
	c.request(line, true, func() {
		cur := c.txn
		if cur == nil || cur.id != id {
			return // transaction already aborted; ownership arrives anyway
		}
		cur.pendingW--
		if cur.committing && cur.pendingW == 0 {
			c.commitTx()
		}
	})
}

// tryCommit is called when the proc executes xend. If stores are still
// draining, the proc blocks until the last GetM completes.
func (c *cache) tryCommit(wake func()) {
	t := c.txn
	if t == nil {
		panic("machine: commit outside transaction")
	}
	t.commitFn = wake
	if t.pendingW == 0 {
		c.commitTx()
		return
	}
	t.committing = true
}

// commitTx makes the transaction's writes globally visible and clears the
// transactional state.
func (c *cache) commitTx() {
	t := c.txn
	for a, v := range t.writeBuf {
		c.m.mem[a] = v
	}
	c.txn = nil
	c.m.Stats.TxCommits++
	c.m.obsInc(obs.TxCommits)
	c.m.obsEvent(obs.EvTxCommit, c.core, t.id)
	// Service reads stalled by the §3.4.1 fix: they now observe the
	// committed value.
	for _, msg := range t.stalledFwd {
		c.handleNow(msg)
	}
	if t.commitFn != nil {
		fn := t.commitFn
		c.m.eng.Schedule(c.m.cfg.CommitCycles, fn)
	}
}

// abortEvent emits the EvTxAbort timeline event for this core. requester is
// the core whose coherence request caused the abort (-1 when none), line the
// conflicting cache line (0 when none); together with the reason bits they
// let the trace analyzer build abort-cascade trees and the §4.3 intra- vs
// cross-socket conflict split.
func (c *cache) abortEvent(st AbortStatus, tripped bool, requester int, line uint64) {
	if c.m.ev == nil {
		return
	}
	var reason uint8
	if st.Conflict {
		reason |= obs.AbortConflict
	}
	if st.Explicit {
		reason |= obs.AbortExplicit
	}
	if st.Nested {
		reason |= obs.AbortNested
	}
	if st.Capacity {
		reason |= obs.AbortCapacity
	}
	if st.Disabled {
		reason |= obs.AbortDisabled
	}
	// No cause bit means an injected interrupt-style abort (RTM returns a
	// zero status for those too).
	if reason&(obs.AbortConflict|obs.AbortExplicit|obs.AbortCapacity|obs.AbortDisabled) == 0 {
		reason |= obs.AbortSpurious
	}
	if tripped {
		reason |= obs.AbortTripped
	}
	c.m.obsEvent(obs.EvTxAbort, c.core, obs.AbortArg(reason, requester, line))
}

// abortTx discards the transaction and resumes the proc at its abort
// handler. tripped records whether the abort hit a writer that was already
// draining its xend (the tripped-writer problem, §3.4). requester and line
// attribute the abort for the event timeline (see abortEvent).
func (c *cache) abortTx(st AbortStatus, tripped bool, requester int, line uint64) {
	t := c.txn
	if t == nil {
		return
	}
	c.txn = nil
	// Attribute the abort: conflict aborts carry the requester core that
	// the coherence protocol identified; everything else reports -1.
	st.Requester = requester
	c.m.Stats.TxAborts++
	c.m.obsInc(obs.TxAborts)
	if st.Conflict {
		c.m.Stats.TxAbortConflict++
		c.m.obsInc(obs.TxAbortsConflict)
	}
	if st.Explicit {
		c.m.Stats.TxAbortExplicit++
		c.m.obsInc(obs.TxAbortsExplicit)
	}
	if st.Nested {
		c.m.Stats.TxAbortNested++
		c.m.obsInc(obs.TxAbortsNested)
	}
	if tripped {
		c.m.Stats.TrippedWriters++
		c.m.obsInc(obs.TxTrippedWriters)
	}
	c.abortEvent(st, tripped, requester, line)
	for _, msg := range t.stalledFwd {
		c.handleNow(msg)
	}
	t.proc.abortWake(st)
}
