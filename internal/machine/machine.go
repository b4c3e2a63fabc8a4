// Package machine implements a deterministic, cycle-level simulation of a
// multi-socket multicore: per-core private caches kept coherent by a
// directory-based MSI protocol, atomic read-modify-write operations that
// acquire exclusive line ownership, and a hardware-transactional-memory
// layer with requester-wins conflict resolution.
//
// The simulator exists because Go exposes no HTM intrinsics and the Go
// runtime would abort hardware transactions anyway. The paper's argument is
// a cache-coherence argument (which messages serialize, which fan out), so
// a protocol-level simulation reproduces the phenomena of interest — the
// linear latency of contended RMWs, the concurrent aborts of transactional
// CAS failures, and the tripped-writer problem — from the same mechanisms
// the paper describes.
//
// Determinism: the machine is driven by a single discrete-event engine and
// simulated threads rendezvous with it on every memory operation, so only
// one goroutine ever runs at a time. Equal seeds yield identical
// executions.
package machine

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Addr is a simulated 64-bit physical address. The machine is word (8-byte)
// addressed for data and line (64-byte) granular for coherence.
type Addr = uint64

// LineShift and LineSize describe the cache-line geometry.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// LineOf returns the cache line number containing addr.
func LineOf(a Addr) uint64 { return a >> LineShift }

// Machine is a simulated multicore system.
type Machine struct {
	cfg Config
	eng *sim.Engine

	caches []*cache
	dirs   []*directory // one per socket; lines are homed by allocation site
	procs  []*Proc

	mem      map[Addr]uint64
	lineHome map[uint64]int // line -> socket of its home directory
	brk      []Addr         // per-socket bump-allocator cursor

	// inj is the fault injector; nil when Config.Faults is empty, so the
	// fault-free path costs one nil check per injection point.
	inj *injector

	// txnIDs issues this machine's transaction ids. Per-machine (not
	// process-global) so equal seeds replay identical ids, independent of
	// process history.
	txnIDs uint64

	running int // procs started and not yet finished

	// Stats accumulates counters for the whole run.
	Stats Stats
	// Tracer, if non-nil, receives a protocol-level event stream.
	Tracer *Tracer
	// rec, if non-nil, additionally streams the counters into the shared
	// telemetry layer (repro/internal/obs): coherence-message kinds, HTM
	// starts/commits and per-reason aborts, and CAS outcomes. Set it with
	// SetRecorder before Run.
	rec *obs.Stats
	// ev is rec's flight recorder (nil unless rec carries one): coherence
	// GetS/GetM requests, HTM begin/commit/abort-with-code, each on the
	// issuing core's lane.
	ev obs.EventRecorder
}

// SetRecorder attaches a telemetry recorder; nil detaches. When r carries
// a flight recorder (obs.NewWithEvents), the machine additionally emits
// per-core timeline events into it.
func (m *Machine) SetRecorder(r *obs.Stats) {
	m.rec = r
	m.ev = r.Events()
}

// obsInc forwards one event to the attached recorder, if any.
func (m *Machine) obsInc(c obs.Counter) {
	if r := m.rec; r != nil {
		r.Inc(c)
	}
}

// obsEvent records one timeline event on core's machine lane, if a flight
// recorder is attached. Timestamps come from the recorder's own clock;
// harnesses wire that to this machine's cycle clock (see trace.WithClock).
func (m *Machine) obsEvent(k obs.EventKind, core int, arg uint64) {
	if ev := m.ev; ev != nil {
		ev.Event(k, obs.MachineLane(core), arg)
	}
}

// cohCounter maps a coherence message kind to its obs counter. The array
// is explicit (not arithmetic on the enums) so reordering either side
// cannot silently misattribute traffic.
var cohCounter = [numMsgKinds]obs.Counter{
	MsgGetS:    obs.CohGetS,
	MsgGetM:    obs.CohGetM,
	MsgFwdGetS: obs.CohFwdGetS,
	MsgFwdGetM: obs.CohFwdGetM,
	MsgInv:     obs.CohInv,
	MsgInvAck:  obs.CohInvAck,
	MsgData:    obs.CohData,
	MsgDownAck: obs.CohDownAck,
}

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	if cfg.Sockets <= 0 || cfg.CoresPerSocket <= 0 {
		panic("machine: invalid topology")
	}
	if cfg.CyclesPerNS == 0 {
		cfg.CyclesPerNS = 2.5
	}
	m := &Machine{
		cfg:      cfg,
		eng:      sim.New(),
		mem:      make(map[Addr]uint64),
		lineHome: make(map[uint64]int),
		brk:      make([]Addr, cfg.Sockets),
	}
	for s := 0; s < cfg.Sockets; s++ {
		// Socket s owns the address region [(s+1)<<40, (s+2)<<40).
		m.brk[s] = Addr(s+1) << 40
		m.dirs = append(m.dirs, newDirectory(m, s))
	}
	for c := 0; c < cfg.NumCores(); c++ {
		m.caches = append(m.caches, newCache(m, c))
	}
	m.inj = newInjector(m, cfg.Faults)
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Engine exposes the underlying event engine (for tests and harnesses).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the current simulated time in cycles.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// homeOf returns the socket whose directory owns line.
func (m *Machine) homeOf(line uint64) int {
	if s, ok := m.lineHome[line]; ok {
		return s
	}
	// Addresses not from the allocator (e.g. raw test addresses) are
	// homed by their top bits, defaulting to socket 0.
	s := int(line>>(40-LineShift)) - 1
	if s < 0 || s >= m.cfg.Sockets {
		return 0
	}
	return s
}

// Alloc carves size bytes (8-byte aligned) out of socket's memory region
// and returns the base address. The backing store is zeroed.
func (m *Machine) Alloc(size int, socket int) Addr {
	if socket < 0 || socket >= m.cfg.Sockets {
		panic("machine: bad socket")
	}
	if size <= 0 {
		panic("machine: bad alloc size")
	}
	sz := Addr((size + 7) &^ 7)
	a := m.brk[socket]
	m.brk[socket] += sz
	for l := LineOf(a); l <= LineOf(a+sz-1); l++ {
		m.lineHome[l] = socket
	}
	return a
}

// AllocLine allocates size bytes starting on a fresh cache line, so that
// distinct allocations never false-share.
func (m *Machine) AllocLine(size int, socket int) Addr {
	m.brk[socket] = (m.brk[socket] + LineSize - 1) &^ (LineSize - 1)
	a := m.Alloc(size, socket)
	// Pad to a line boundary so the next allocation starts fresh too.
	m.brk[socket] = (m.brk[socket] + LineSize - 1) &^ (LineSize - 1)
	return a
}

// Peek reads simulated memory without coherence traffic (harness backdoor).
func (m *Machine) Peek(a Addr) uint64 { return m.mem[a] }

// Poke writes simulated memory without coherence traffic (harness backdoor).
// It must only be used before the simulation starts or between phases when
// no line is cached dirty.
func (m *Machine) Poke(a Addr, v uint64) { m.mem[a] = v }

// hop returns the message latency between two endpoints. Endpoint ids are
// core ids; directories are addressed by socket via dirEndpoint. When the
// fault injector configures cross-socket jitter, remote hops additionally
// pay a random 0..CrossSocketJitter-cycle congestion penalty.
func (m *Machine) hopCores(socketA, socketB int) uint64 {
	if socketA == socketB {
		return m.cfg.HopCycles
	}
	lat := m.cfg.HopCycles * m.cfg.NUMAFactor
	if j := m.inj; j != nil {
		lat += j.hopJitter(socketA, socketB)
	}
	return lat
}

// sendToCache delivers msg to core dst after the appropriate hop latency.
// fromSocket identifies the sender's socket for NUMA accounting.
func (m *Machine) sendToCache(fromSocket, dst int, msg Msg) {
	m.Stats.Msgs[msg.Kind]++
	m.obsInc(cohCounter[msg.Kind])
	lat := m.hopCores(fromSocket, m.cfg.SocketOf(dst))
	m.trace(msg, endpointName(dst))
	m.eng.Schedule(lat, func() { m.caches[dst].receive(msg) })
}

// sendToDir delivers msg to the home directory of msg.Line.
func (m *Machine) sendToDir(fromSocket int, msg Msg) {
	m.Stats.Msgs[msg.Kind]++
	m.obsInc(cohCounter[msg.Kind])
	// Ownership-transfer requests are timeline events: the analyzer
	// attributes abort cascades to the GetM that triggered them (§3.3).
	if msg.From >= 0 {
		switch msg.Kind {
		case MsgGetS:
			m.obsEvent(obs.EvCohGetS, msg.From, msg.Line)
		case MsgGetM:
			m.obsEvent(obs.EvCohGetM, msg.From, msg.Line)
		}
	}
	home := m.homeOf(msg.Line)
	lat := m.hopCores(fromSocket, home)
	m.trace(msg, fmt.Sprintf("Dir%d", home))
	m.eng.Schedule(lat, func() { m.dirs[home].receive(msg) })
}

func (m *Machine) trace(msg Msg, to string) {
	if m.Tracer != nil {
		m.Tracer.record(m.eng.Now(), msg, to)
	}
}

// Go starts a simulated thread running body on the given core. Threads
// must be created before Run is called (or from within running threads).
func (m *Machine) Go(core int, body func(p *Proc)) *Proc {
	if core < 0 || core >= m.cfg.NumCores() {
		panic("machine: bad core id")
	}
	p := newProc(m, core, len(m.procs))
	m.procs = append(m.procs, p)
	m.running++
	p.start(body)
	return p
}

// Run drives the simulation until all threads have finished. It panics if
// the event queue drains while threads are still blocked, which indicates
// a deadlock in the simulated program or a protocol bug.
func (m *Machine) Run() {
	m.eng.Run()
	if m.running != 0 {
		panic(fmt.Sprintf("machine: deadlock: %d simulated threads still blocked at t=%d", m.running, m.eng.Now()))
	}
}

// MOwners returns the set of cores holding line in Modified state. The
// coherence invariant says this never exceeds one; tests assert it.
func (m *Machine) MOwners(line uint64) []int {
	var owners []int
	for id, c := range m.caches {
		if c.lines[line] == stateM {
			owners = append(owners, id)
		}
	}
	return owners
}

func endpointName(core int) string { return fmt.Sprintf("C%d", core) }

// Stats aggregates machine-wide counters.
type Stats struct {
	Msgs [numMsgKinds]uint64

	RMWs      uint64 // atomic RMWs executed
	Loads     uint64
	Stores    uint64
	LoadHits  uint64
	StoreHits uint64

	TxStarted       uint64
	TxCommits       uint64
	TxAborts        uint64
	TxAbortConflict uint64
	TxAbortExplicit uint64
	TxAbortNested   uint64 // conflict aborts that hit inside a nested region
	TxAbortSpurious uint64 // injected non-conflict aborts (interrupts etc.)
	TxAbortCapacity uint64 // speculative-state overflow aborts
	TxAbortDisabled uint64 // _xbegin refused because HTM is disabled
	TrippedWriters  uint64 // aborts caused by Fwd-GetS while draining xend
	FixStalls       uint64 // Fwd-GetS stalls avoided by the §3.4.1 fix

	CASFallbacks   uint64 // software-fallback CASes (Proc.FallbackCAS)
	FaultsInjected uint64 // injector-produced aborts (spurious + disabled)
	JitteredHops   uint64 // cross-socket hops that drew nonzero jitter
	JitterCycles   uint64 // total injected cross-socket jitter, in cycles
}
