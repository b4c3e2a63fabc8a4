package simqueue

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/txcas"
)

// SBQ is the scalable baskets queue (paper §5): a modular baskets queue
// (Algorithms 2-6) instantiated with the scalable basket (Algorithms 8-9)
// and a pluggable try_append CAS — TxCAS for SBQ-HTM, plain or delayed CAS
// for SBQ-CAS — plus the epoch-based memory reclamation of Algorithm 7.
//
// Simulated node layout (hot fields on distinct cache lines):
//
//	+0    next            (line 0, the try_append target)
//	+8    index
//	+64   basket.counter  (line 1, the dequeuers' FAA target)
//	+128  basket.empty    (line 2)
//	+192  basket.cells[B] (8 cells per line, one per inserter)
type SBQ struct {
	m *Machine

	basketSize int // B: cells per basket
	enqueuers  int // E: emptiness bound (paper fixes B=44, E=actual enqueuers)
	threads    int // protector slots
	partitions int // K extraction partitions (1 = the paper's basket)

	headA    machine.Addr
	tailA    machine.Addr
	retiredA machine.Addr
	protA    machine.Addr // protectors[threads], one per cache line

	tryAppend AppendFunc
	name      string
	rec       obs.Recorder // nil unless SBQOptions.Rec attached telemetry
	// ev is the timeline extension of rec (nil unless Rec is a flight-
	// recorder collector). Queue-layer events land on lane=tid, matching
	// the harness's thread numbering; the analyzer joins them with the
	// machine layer's core lanes through the lane_cores trace metadata.
	ev obs.EventRecorder

	enq  []enqState // per-enqueuer node reuse + freelists (indexed by tid)
	free [][]uint64 // per-thread freelists of retired node addresses

	// FreeNodeCalls and FreedNodes count reclamation activity.
	FreeNodeCalls uint64
	FreedNodes    uint64
}

// Machine aliases machine.Machine to keep constructor signatures short.
type Machine = machine.Machine

type enqState struct {
	reserved uint64 // node kept from a previous enqueue that did not append it
}

// AppendFunc attempts CAS(addr, old, new) on behalf of thread tid and
// reports success. SBQ uses it for the single contended CAS of try_append.
type AppendFunc func(p *machine.Proc, tid int, addr machine.Addr, old, new uint64) bool

// Node field offsets (bytes). With K extraction partitions (an extension
// implementing the paper's §8 future work; K=1 is the paper's basket),
// the layout is:
//
//	+0            next, index          (line 0)
//	+64+64k       counter[k]           (one line per partition)
//	+64+64K       empty bit, exhausted (one line)
//	+128+64K      cells                (8 per line)
const (
	offNext  = 0
	offIndex = 8
	offPart  = 64
)

func (q *SBQ) offCounter(k int) uint64 { return offPart + 64*uint64(k) }
func (q *SBQ) offEmpty() uint64        { return offPart + 64*uint64(q.partitions) }
func (q *SBQ) offExhausted() uint64    { return q.offEmpty() + 8 }
func (q *SBQ) offCells() uint64        { return q.offEmpty() + 64 }

// try_append status values (Algorithm 4).
type appendStatus int

const (
	appendSuccess appendStatus = iota
	appendFailure
	appendBadTail
)

// SBQOptions configures an SBQ instance.
type SBQOptions struct {
	// BasketSize is B, the basket's cell count. The paper's evaluation
	// fixes it at 44.
	BasketSize int
	// Enqueuers is the number of enqueuer threads; basket emptiness is
	// judged against it (paper §6.1). Must be <= BasketSize.
	Enqueuers int
	// Threads is the total number of threads (protector slots).
	Threads int
	// Append is the try_append CAS. Defaults to plain CAS (or to
	// PrimitiveAppend(Primitive) when Primitive is set).
	Append AppendFunc
	// Primitive, when non-nil and Append is nil, drives try_append through
	// the unified CAS-primitive interface (repro/internal/txcas) — e.g. a
	// core.Bound of per-thread TxCAS executors. Equivalent to setting
	// Append to PrimitiveAppend(Primitive).
	Primitive txcas.Primitive
	// Socket homes the queue's memory.
	Socket int
	// Name labels the variant in output.
	Name string
	// Partitions splits basket extraction across this many counters
	// (clamped to [1, Enqueuers]). 1 reproduces the paper's basket;
	// higher values implement its §8 future work of scalable dequeues.
	Partitions int
	// Rec, when non-nil, receives queue-level telemetry (operation counts,
	// try_append CAS outcomes, basket insert/extract outcomes). Machine-
	// level telemetry (HTM aborts, coherence traffic) attaches to the
	// Machine via SetRecorder instead, so the two layers stay separable.
	Rec obs.Recorder
}

// NewSBQ allocates an SBQ on m.
func NewSBQ(m *Machine, opt SBQOptions) *SBQ {
	if opt.BasketSize <= 0 {
		opt.BasketSize = 44
	}
	if opt.Enqueuers <= 0 {
		opt.Enqueuers = opt.BasketSize
	}
	if opt.Enqueuers > opt.BasketSize {
		panic("simqueue: more enqueuers than basket cells")
	}
	if opt.Threads <= 0 {
		opt.Threads = opt.Enqueuers
	}
	if opt.Append == nil && opt.Primitive != nil {
		opt.Append = PrimitiveAppend(opt.Primitive)
	}
	if opt.Append == nil {
		opt.Append = PlainCAS
	}
	if opt.Name == "" {
		opt.Name = "SBQ"
	}
	if opt.Partitions < 1 {
		opt.Partitions = 1
	}
	if opt.Partitions > opt.Enqueuers {
		opt.Partitions = opt.Enqueuers
	}
	q := &SBQ{
		m:          m,
		basketSize: opt.BasketSize,
		enqueuers:  opt.Enqueuers,
		threads:    opt.Threads,
		partitions: opt.Partitions,
		tryAppend:  opt.Append,
		name:       opt.Name,
		rec:        obs.Normalize(opt.Rec),
		ev:         obs.Events(opt.Rec),
		enq:        make([]enqState, opt.Threads),
		free:       make([][]uint64, opt.Threads),
	}
	q.headA = m.AllocLine(8, opt.Socket)
	q.tailA = m.AllocLine(8, opt.Socket)
	q.retiredA = m.AllocLine(8, opt.Socket)
	q.protA = m.AllocLine(machine.LineSize*opt.Threads, opt.Socket)
	sentinel := q.newNode(opt.Socket)
	m.Poke(q.headA, sentinel)
	m.Poke(q.tailA, sentinel)
	m.Poke(q.retiredA, sentinel)
	// The sentinel's basket must read as empty.
	m.Poke(sentinel+q.offEmpty(), 1)
	return q
}

// event records one timeline event on thread tid's lane, if a flight
// recorder is attached.
func (q *SBQ) event(k obs.EventKind, tid int, arg uint64) {
	if ev := q.ev; ev != nil {
		ev.Event(k, int32(tid), arg)
	}
}

// partBounds returns partition k's cell range [lo, hi).
func (q *SBQ) partBounds(k int) (lo, hi int) {
	return q.enqueuers * k / q.partitions, q.enqueuers * (k + 1) / q.partitions
}

// Name implements Queue.
func (q *SBQ) Name() string { return q.name }

func (q *SBQ) nodeBytes() int { return int(q.offCells()) + 8*q.basketSize }

// newNode carves a fresh zeroed node out of simulated memory (allocator
// backdoor: allocation metadata is not part of the coherence experiment).
func (q *SBQ) newNode(socket int) uint64 {
	return q.m.AllocLine(q.nodeBytes(), socket)
}

func (q *SBQ) protAddr(tid int) machine.Addr {
	return q.protA + machine.Addr(tid)*machine.LineSize
}

func (q *SBQ) cellAddr(node uint64, i int) machine.Addr {
	return node + q.offCells() + 8*uint64(i)
}

// allocNode returns a node ready for appending: from the thread's freelist
// (re-zeroed via the allocator backdoor, playing the role of calloc) or
// fresh memory. Either way the caller pays an initialization delay
// proportional to the basket size — the O(B) cost whose O(B/T)
// amortization §5.3.4 analyzes (initialization writes hit the local cache
// at one line per 8 cells).
func (q *SBQ) allocNode(p *machine.Proc, tid int) uint64 {
	if p != nil {
		p.Delay(uint64(q.basketSize/8+2) * q.m.Config().HitCycles)
	}
	if fl := q.free[tid]; len(fl) > 0 {
		n := fl[len(fl)-1]
		q.free[tid] = fl[:len(fl)-1]
		q.m.Poke(n+offNext, 0)
		q.m.Poke(n+offIndex, 0)
		for k := 0; k < q.partitions; k++ {
			q.m.Poke(n+q.offCounter(k), 0)
		}
		q.m.Poke(n+q.offEmpty(), 0)
		q.m.Poke(n+q.offExhausted(), 0)
		for i := 0; i < q.basketSize; i++ {
			q.m.Poke(q.cellAddr(n, i), sentinelInsert)
		}
		return n
	}
	return q.newNode(p.Socket())
}

// ---------------------------------------------------------------------------
// The scalable basket (Algorithm 9).

// basketInsert attempts to publish v in inserter eid's private cell.
func (q *SBQ) basketInsert(p *machine.Proc, node uint64, eid int, v uint64) bool {
	ok := p.CAS(q.cellAddr(node, eid), sentinelInsert, v)
	if r := q.rec; r != nil {
		if ok {
			r.Inc(obs.BasketInserts)
		} else {
			r.Inc(obs.BasketInsertFails)
		}
	}
	return ok
}

// basketExtract removes some element, or fails if the basket is (or is
// about to become) empty. tid selects the extractor's home partition when
// partitioned extraction is enabled.
func (q *SBQ) basketExtract(p *machine.Proc, node uint64, tid int) (uint64, bool) {
	v, ok := q.basketExtractInner(p, node, tid)
	if r := q.rec; r != nil {
		if ok {
			r.Inc(obs.BasketExtracts)
		} else {
			r.Inc(obs.BasketExtractFails)
		}
	}
	return v, ok
}

func (q *SBQ) basketExtractInner(p *machine.Proc, node uint64, tid int) (uint64, bool) {
	if p.Read(node+q.offEmpty()) != 0 {
		return 0, false
	}
	if q.partitions == 1 {
		// The paper's Algorithm 9, verbatim.
		for {
			idx := p.FAA(node+q.offCounter(0), 1)
			if idx >= uint64(q.enqueuers) {
				return 0, false
			}
			if idx == uint64(q.enqueuers)-1 {
				p.Write(node+q.offEmpty(), 1)
				q.event(obs.EvBasketClose, tid, node)
			}
			v := p.Swap(q.cellAddr(node, int(idx)), sentinelEmpty)
			if v != sentinelInsert {
				return v, true
			}
		}
	}
	// Partitioned extension (§8 future work): claim indices from the home
	// partition, falling over to others only when it is exhausted. The
	// extractor that exhausts the last partition sets the empty bit, so
	// emptiness stays monotone — the property queue linearizability needs.
	home := tid % q.partitions
	for off := 0; off < q.partitions; off++ {
		k := (home + off) % q.partitions
		lo, hi := q.partBounds(k)
		n := uint64(hi - lo)
		for {
			// Probe with a (scalable, shared) read before paying for an
			// exclusive RMW on a foreign partition's counter.
			if off > 0 && p.Read(node+q.offCounter(k)) >= n {
				break
			}
			idx := p.FAA(node+q.offCounter(k), 1)
			if idx >= n {
				break
			}
			if idx == n-1 {
				if p.FAA(node+q.offExhausted(), 1)+1 == uint64(q.partitions) {
					p.Write(node+q.offEmpty(), 1)
					q.event(obs.EvBasketClose, tid, node)
				}
			}
			v := p.Swap(q.cellAddr(node, lo+int(idx)), sentinelEmpty)
			if v != sentinelInsert {
				return v, true
			}
		}
	}
	return 0, false
}

func (q *SBQ) basketEmpty(p *machine.Proc, node uint64) bool {
	return p.Read(node+q.offEmpty()) != 0
}

// ---------------------------------------------------------------------------
// Modular queue operations (Algorithms 3-6).

// tryAppendNode is Algorithm 4 with the pluggable CAS.
func (q *SBQ) tryAppendNode(p *machine.Proc, tid int, tail, newNode uint64) appendStatus {
	if p.Read(tail+offNext) != 0 {
		return appendBadTail
	}
	if r := q.rec; r != nil {
		r.Inc(obs.CASAttempts)
	}
	q.event(obs.EvCASAttempt, tid, machine.LineOf(tail+offNext))
	if q.tryAppend(p, tid, tail+offNext, 0, newNode) {
		return appendSuccess
	}
	if r := q.rec; r != nil {
		r.Inc(obs.CASFailures)
	}
	q.event(obs.EvCASFailure, tid, machine.LineOf(tail+offNext))
	return appendFailure
}

// Enqueue is Algorithm 3. tid doubles as the enqueuer id and must be below
// the configured Enqueuers count.
func (q *SBQ) Enqueue(p *machine.Proc, tid int, v uint64) {
	checkValue(v)
	if tid >= q.enqueuers {
		panic("simqueue: enqueuer tid out of range")
	}
	q.event(obs.EvEnqStart, tid, 0)
	t := q.protect(p, q.tailA, tid)
	n := q.enq[tid].reserved
	if n == 0 {
		n = q.allocNode(p, tid)
	} else {
		// Reuse the node kept from the previous enqueue; undo its single
		// basket insertion (constant time, paper §5.2.2).
		p.Write(q.cellAddr(n, tid), sentinelInsert)
	}
	q.basketInsert(p, n, tid, v)
	if r := q.rec; r != nil {
		r.Inc(obs.EnqOps)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r := q.rec; r != nil {
				r.Inc(obs.EnqRetries)
			}
		}
		p.Write(n+offIndex, p.Read(t+offIndex)+1)
		status := q.tryAppendNode(p, tid, t, n)
		if status == appendSuccess {
			// The node is linked: its basket is now open for insertion.
			q.event(obs.EvBasketOpen, tid, n)
			p.CAS(q.tailA, t, n)
			q.enq[tid].reserved = 0
			break
		}
		if status == appendFailure {
			t = p.Read(t + offNext)
			if q.basketInsert(p, t, tid, v) {
				q.enq[tid].reserved = n
				break
			}
		}
		// BAD_TAIL, or the freshly appended basket refused us: find the
		// real tail and make sure the queue's tail pointer catches up.
		for {
			nx := p.Read(t + offNext)
			if nx == 0 {
				break
			}
			t = nx
		}
		q.advanceNode(p, q.tailA, t)
	}
	q.unprotect(p, tid)
	q.event(obs.EvEnqEnd, tid, 1)
}

// Dequeue is Algorithm 5.
func (q *SBQ) Dequeue(p *machine.Proc, tid int) (uint64, bool) {
	q.event(obs.EvDeqStart, tid, 0)
	h := q.protect(p, q.headA, tid)
	var elem uint64
	var ok bool
	for rounds := 0; ; rounds++ {
		if rounds > 0 {
			if r := q.rec; r != nil {
				r.Inc(obs.DeqRetries)
			}
		}
		for q.basketEmpty(p, h) {
			nx := p.Read(h + offNext)
			if nx == 0 {
				break
			}
			h = nx
		}
		elem, ok = q.basketExtract(p, h, tid)
		if ok || p.Read(h+offNext) == 0 {
			break
		}
	}
	q.advanceNode(p, q.headA, h)
	q.freeNodes(p, tid)
	q.unprotect(p, tid)
	if r := q.rec; r != nil {
		if ok {
			r.Inc(obs.DeqOps)
		} else {
			r.Inc(obs.DeqEmpty)
		}
	}
	var okArg uint64
	if ok {
		okArg = 1
	}
	q.event(obs.EvDeqEnd, tid, okArg)
	return elem, ok
}

// advanceNode is Algorithm 6: move *ptr forward to at least newNode.
func (q *SBQ) advanceNode(p *machine.Proc, ptr machine.Addr, newNode uint64) {
	for {
		old := p.Read(ptr)
		if p.Read(old+offIndex) >= p.Read(newNode+offIndex) {
			return
		}
		//lint:ignore casloop monotonic catch-up accounted by the machine's recorder; a failed CAS means the pointer advanced
		if p.CAS(ptr, old, newNode) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Epoch-based memory reclamation (Algorithm 7).

func (q *SBQ) protect(p *machine.Proc, ptr machine.Addr, tid int) uint64 {
	pa := q.protAddr(tid)
	for {
		v := p.Read(ptr)
		p.Write(pa, v)
		if p.Read(ptr) == v {
			return v
		}
	}
}

func (q *SBQ) unprotect(p *machine.Proc, tid int) {
	p.Write(q.protAddr(tid), 0)
}

// freeNodes advances the retired pointer to the earliest protected node and
// recycles everything it passes. Mutual exclusion comes from the SWAP.
func (q *SBQ) freeNodes(p *machine.Proc, tid int) {
	retired := p.Swap(q.retiredA, 0)
	if retired == 0 {
		return
	}
	q.FreeNodeCalls++
	minIdx := ^uint64(0)
	for i := 0; i < q.threads; i++ {
		pr := p.Read(q.protAddr(i))
		if pr != 0 {
			if idx := p.Read(pr + offIndex); idx < minIdx {
				minIdx = idx
			}
		}
	}
	for retired != p.Read(q.headA) && p.Read(retired+offIndex) < minIdx {
		tmp := p.Read(retired + offNext)
		q.free[tid] = append(q.free[tid], retired)
		q.FreedNodes++
		retired = tmp
	}
	p.Write(q.retiredA, retired)
}

// ---------------------------------------------------------------------------
// try_append CAS flavors.

// PlainCAS is the standard atomic CAS (SBQ-CAS without delay).
func PlainCAS(p *machine.Proc, _ int, addr machine.Addr, old, new uint64) bool {
	return p.CAS(addr, old, new)
}

// DelayedCAS returns an AppendFunc that waits like TxCAS before the CAS —
// the SBQ-CAS variant of the paper's evaluation (§6.1), which isolates the
// contribution of TxCAS from that of the scalable basket.
func DelayedCAS(delay uint64) AppendFunc {
	return func(p *machine.Proc, _ int, addr machine.Addr, old, new uint64) bool {
		p.Delay(delay)
		return p.CAS(addr, old, new)
	}
}

// procAttacher is implemented by primitives that need the simulated
// thread's *machine.Proc registered before use (core.Bound). The proc only
// exists once the machine has started the thread body, so PrimitiveAppend
// attaches it at call time rather than construction time.
type procAttacher interface {
	Attach(tid int, p *machine.Proc)
}

// PrimitiveAppend returns an AppendFunc that drives try_append through the
// unified CAS-primitive interface (repro/internal/txcas.Primitive). The
// structured Outcome is reduced to the boolean try_append needs; callers
// wanting the full failure reports keep their own handle on the primitive
// (e.g. core.Bound's executors).
func PrimitiveAppend(prim txcas.Primitive) AppendFunc {
	at, _ := prim.(procAttacher)
	return func(p *machine.Proc, tid int, addr machine.Addr, old, new uint64) bool {
		if at != nil {
			at.Attach(tid, p)
		}
		return prim.TxCAS(tid, txcas.Loc(addr), old, new).OK
	}
}
