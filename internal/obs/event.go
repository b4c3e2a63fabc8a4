package obs

// This file defines the timeline-event extension of the observability
// layer. Counters (obs.Counter) say how much; events say when and why:
// each event is a point on a per-lane timeline, and the flight recorder in
// repro/internal/trace captures them into lock-free ring buffers for
// export as Chrome trace_event JSON and for reconstruction of the paper's
// temporal claims — §3's tripped-writer serialization chains and §4.3's
// cross-socket abort asymmetry — which aggregate counters cannot show.
//
// Instrumented code holds an EventRecorder field that is nil when tracing
// is off (mirroring the nil *Stats discipline), so the disabled path is one
// predictable nil check per event site.

// EventKind identifies one timeline event type.
type EventKind uint8

const (
	// Operation window events. EnqEnd/DeqEnd arg is 1 for a successful
	// operation, 0 for an empty dequeue.
	EvEnqStart EventKind = iota
	EvEnqEnd
	EvDeqStart
	EvDeqEnd

	// try_append CAS events (queue layer) and raw CAS events (machine
	// layer). Arg is the cache line on the machine layer, 0 natively.
	EvCASAttempt
	EvCASFailure
	EvCASFallback

	// HTM events (machine layer). EvTxAbort's arg packs the abort reason
	// bits, the conflicting requester core, and the conflicting line (see
	// AbortArg); begin/commit args are the transaction id.
	EvTxBegin
	EvTxCommit
	EvTxAbort

	// Basket lifecycle: a basket opens when its node is linked into the
	// queue and closes when its empty bit is set. Arg identifies the
	// basket (node address on the simulated track, a queue-local sequence
	// number natively).
	EvBasketOpen
	EvBasketClose

	// Coherence read/write ownership handoffs (machine layer,
	// machine.SetRecorder). Arg is the cache line.
	EvCohGetS
	EvCohGetM

	// EvFaultInject marks one injector-produced fault (machine layer). Arg
	// is the fault kind (machine.FaultSpurious, machine.FaultDisabled).
	EvFaultInject

	// Job-queue service lifecycle events (repro/service). Arg is the job
	// id throughout, so a trace viewer can follow one job from submit
	// through redeliveries to its ack or dead-lettering. They render as
	// instants in the Chrome export.
	EvSrvSubmit
	EvSrvLease
	EvSrvAck
	EvSrvNack
	EvSrvExpire
	EvSrvDLQ

	// NumEventKinds bounds the enum; it is not an event kind.
	NumEventKinds
)

var eventNames = [NumEventKinds]string{
	EvEnqStart:    "enq_start",
	EvEnqEnd:      "enq_end",
	EvDeqStart:    "deq_start",
	EvDeqEnd:      "deq_end",
	EvCASAttempt:  "cas_attempt",
	EvCASFailure:  "cas_failure",
	EvCASFallback: "cas_fallback",
	EvTxBegin:     "tx_begin",
	EvTxCommit:    "tx_commit",
	EvTxAbort:     "tx_abort",
	EvBasketOpen:  "basket_open",
	EvBasketClose: "basket_close",
	EvCohGetS:     "coh_gets",
	EvCohGetM:     "coh_getm",
	EvFaultInject: "fault_inject",
	EvSrvSubmit:   "srv_submit",
	EvSrvLease:    "srv_lease",
	EvSrvAck:      "srv_ack",
	EvSrvNack:     "srv_nack",
	EvSrvExpire:   "srv_expire",
	EvSrvDLQ:      "srv_dlq",
}

// String returns the event kind's snake_case name.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventNames[k]
	}
	return "?"
}

// EventKindOf returns the kind with the given snake_case name (the inverse
// of String), for decoding exported traces.
func EventKindOf(name string) (EventKind, bool) {
	for k, n := range eventNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Abort reason bits carried in an EvTxAbort arg.
const (
	AbortConflict uint8 = 1 << iota
	AbortExplicit
	AbortNested
	AbortCapacity
	AbortSpurious
	// AbortTripped marks a conflict abort that hit a writer already
	// draining its xend — the tripped-writer problem of paper §3.4.
	AbortTripped
	// AbortDisabled marks a transaction refused at _xbegin because HTM is
	// disabled (machine.FaultPlan.DisableHTM / DisableHTMAfter).
	AbortDisabled
)

const (
	abortReqShift  = 8
	abortLineShift = 16
)

// AbortArg packs an EvTxAbort payload: the reason bits, the conflicting
// requester core (or a negative value when unknown), and the conflicting
// cache line (0 when unknown). Lines occupy the top 48 bits, which covers
// the simulated machine's address space.
func AbortArg(reason uint8, requester int, line uint64) uint64 {
	arg := uint64(reason)
	if requester >= 0 && requester < 255 {
		arg |= uint64(requester+1) << abortReqShift
	}
	return arg | line<<abortLineShift
}

// AbortReason unpacks the reason bits of an EvTxAbort arg.
func AbortReason(arg uint64) uint8 { return uint8(arg) }

// AbortRequester unpacks the conflicting requester core of an EvTxAbort
// arg, or -1 when it was unknown.
func AbortRequester(arg uint64) int {
	r := int(arg>>abortReqShift) & 0xff
	return r - 1
}

// AbortLine unpacks the conflicting cache line of an EvTxAbort arg.
func AbortLine(arg uint64) uint64 { return arg >> abortLineShift }

// Lanes are int32 timeline identifiers. Queue-layer lanes are small
// non-negative integers (producer handle ids, simulated thread ids), or
// LaneDefault to use the emitting trace handle's own lane. Machine-layer
// events tag the emitting core through MachineLane, a disjoint namespace,
// so the two layers render as separate process groups in a trace viewer.
const (
	// LaneDefault asks the receiving EventRecorder to substitute its own
	// lane (each flight-recorder handle owns one).
	LaneDefault int32 = -1

	machineLaneBit int32 = 1 << 20
)

// MachineLane returns the lane tagging the given simulated core.
func MachineLane(core int) int32 { return machineLaneBit | int32(core) }

// IsMachineLane reports whether lane is a machine-layer core lane.
func IsMachineLane(lane int32) bool { return lane >= 0 && lane&machineLaneBit != 0 }

// LaneCore returns the core id of a machine-layer lane.
func LaneCore(lane int32) int { return int(lane &^ machineLaneBit) }

// EventRecorder receives timeline events. The flight recorder
// (repro/internal/trace) implements it. It reaches instrumented code only
// through a Stats built by NewWithEvents: instrumentation reads
// Stats.Events once at construction and nil-checks the result per site, so
// counter-only telemetry pays nothing for the event hooks.
type EventRecorder interface {
	// Event records one timeline event on the given lane (LaneDefault for
	// the recorder's own lane) with a kind-specific argument.
	Event(k EventKind, lane int32, arg uint64)
}
