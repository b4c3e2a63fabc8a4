// Package trace is the repository's flight recorder: lock-free,
// cache-line-padded ring buffers of fixed-size binary events behind the
// obs.EventRecorder extension point, drained on demand into a merged,
// time-sorted Trace and exported as Chrome trace_event JSON
// (chrome://tracing / Perfetto render per-lane swimlanes).
//
// Counters (repro/internal/obs) answer how much; the paper's core claims
// are temporal — §3's tripped-writer serialization chains and §4.3's
// cross-socket abort asymmetry are statements about who invalidated whom,
// in what order — and only an event timeline can reconstruct them. The
// analyzer half of this package (analyze.go) rebuilds those figures from
// a drained trace; cmd/sbqtrace is its CLI.
//
// Recording discipline mirrors the queues' handle discipline: a Collector
// issues per-handle rings (Collector.Handle), each meant for one hot
// goroutine, though rings tolerate multiple writers (slots are seqlock-
// published) so a queue-wide shared handle is merely less precise, never
// unsafe. The Collector itself is a Handle-backed EventRecorder: attach it
// to a root obs.Stats with obs.NewWithEvents, and everything that records
// into that Stats or a scope of it (machine.SetRecorder, a queue's
// WithRecorder option, the service's Config.Recorder) also emits its
// events here. With tracing off, instrumented code holds a nil
// obs.EventRecorder and pays one branch per event site.
//
// Snapshotting is epoch-based: each Snapshot call opens a new epoch by
// cutting every ring at its current reservation cursor; events published
// after the cut belong to the next epoch and are left in place. Rings
// overwrite their oldest entries when full (flight-recorder semantics);
// overwritten and torn entries are counted in Trace.Dropped, never
// silently lost.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultRingSize is the per-handle ring capacity (events) when
// WithRingSize is not given. At 32 bytes per slot this is 512 KiB per
// handle — roughly the last half-million events of each lane.
const DefaultRingSize = 1 << 14

// Event is one drained flight-recorder event. TS is in the collector's
// clock domain (wall nanoseconds by default, simulated nanoseconds when
// the harness supplies the machine clock).
type Event struct {
	TS   uint64
	Arg  uint64
	Kind obs.EventKind
	Lane int32
}

// String renders the event for debugging output.
func (e Event) String() string {
	return fmt.Sprintf("t=%d lane=%d %s arg=%#x", e.TS, e.Lane, e.Kind, e.Arg)
}

// slot is one ring entry. All fields are atomics so concurrent writers
// and the draining reader stay race-free; seq is the seqlock word: 0
// while a writer owns the slot, position+1 once the payload is published.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Uint64
	arg  atomic.Uint64
	meta atomic.Uint64 // kind in the low byte, lane (as uint32) above it
}

func packMeta(k obs.EventKind, lane int32) uint64 {
	return uint64(k) | uint64(uint32(lane))<<32
}

func unpackMeta(m uint64) (obs.EventKind, int32) {
	return obs.EventKind(m & 0xff), int32(uint32(m >> 32))
}

// ring is a fixed-size overwrite-oldest event buffer. Writers reserve a
// position with one FAA on head, then publish through the slot's seqlock;
// the reader (Collector.Snapshot) validates seq around its copy and skips
// entries that were overwritten or still in flight.
type ring struct {
	//lf:contended every event reserves a slot with an FAA on this cursor
	head atomic.Uint64
	_    [56]byte

	slots []slot
	mask  uint64
	// The tail pad makes ring 128 B on 64-bit targets, two whole lines, so
	// an allocation of it starts on a line and head shares its line with
	// nothing.
	_ [32]byte
}

func newRing(size int) *ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	// Round up to a power of two so reservation is a mask, not a modulo.
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

func (r *ring) record(ts uint64, k obs.EventKind, lane int32, arg uint64) {
	pos := r.head.Add(1) - 1
	s := &r.slots[pos&r.mask]
	s.seq.Store(0) // take the slot: readers skip it until republished
	s.ts.Store(ts)
	s.arg.Store(arg)
	s.meta.Store(packMeta(k, lane))
	s.seq.Store(pos + 1)
}

// drain copies the published events in [from, cut) that are still live
// into out, returning the updated slice and how many entries were lost to
// overwriting or torn by racing writers.
func (r *ring) drain(out []Event, from, cut uint64) ([]Event, uint64) {
	lo := from
	if size := uint64(len(r.slots)); cut > size && lo < cut-size {
		lo = cut - size // older entries are already overwritten
	}
	collected := uint64(0)
	for pos := lo; pos < cut; pos++ {
		s := &r.slots[pos&r.mask]
		if s.seq.Load() != pos+1 {
			continue // overwritten, or a writer still owns the slot
		}
		ts, arg, meta := s.ts.Load(), s.arg.Load(), s.meta.Load()
		if s.seq.Load() != pos+1 {
			continue // torn: overwritten mid-copy
		}
		k, lane := unpackMeta(meta)
		out = append(out, Event{TS: ts, Arg: arg, Kind: k, Lane: lane})
		collected++
	}
	return out, (cut - from) - collected
}

// Option configures a Collector.
type Option func(*Collector)

// WithClock sets the timestamp source. The default is monotonic wall
// nanoseconds since the collector's creation; simulated-track harnesses
// pass the machine's cycle clock scaled to nanoseconds.
func WithClock(clock func() uint64) Option {
	return func(c *Collector) { c.clock = clock }
}

// WithRingSize sets the per-handle ring capacity in events (rounded up to
// a power of two).
func WithRingSize(n int) Option {
	return func(c *Collector) { c.ringSize = n }
}

// WithClockName labels the clock domain recorded in drained traces
// ("wall-ns" by default; harnesses use "sim-ns").
func WithClockName(name string) Option {
	return func(c *Collector) { c.clockName = name }
}

// Collector owns the flight recorder: it issues per-handle rings, carries
// the shared clock, and drains everything into consistent snapshots. It
// implements obs.EventRecorder through a built-in handle (lane 0,
// labelled "main").
type Collector struct {
	clock     func() uint64
	clockName string
	ringSize  int

	mu      sync.Mutex
	handles []*Handle
	epoch   uint64
	meta    map[string]string

	base *Handle
}

// New returns a Collector configured by opts.
func New(opts ...Option) *Collector {
	c := &Collector{ringSize: DefaultRingSize, clockName: "wall-ns", meta: map[string]string{}}
	for _, opt := range opts {
		opt(c)
	}
	if c.clock == nil {
		start := time.Now()
		c.clock = func() uint64 { return uint64(time.Since(start)) }
	}
	c.base = c.Handle("main")
	return c
}

// Handle issues a new recording handle with its own ring and lane. Like a
// queue handle it is meant for one goroutine at a time, but concurrent
// use is safe (events may interleave arbitrarily within the ring).
func (c *Collector) Handle(label string) *Handle {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := &Handle{c: c, lane: int32(len(c.handles)), label: label, ring: newRing(c.ringSize)}
	c.handles = append(c.handles, h)
	return h
}

// SetMeta attaches a key/value pair carried by every subsequent Snapshot
// (topology, lane-to-core mappings, workload labels — see Trace.Meta).
func (c *Collector) SetMeta(key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meta[key] = value
}

// Event implements obs.EventRecorder on the collector's built-in handle.
//
//lf:hotpath
func (c *Collector) Event(k obs.EventKind, lane int32, arg uint64) { c.base.Event(k, lane, arg) }

// Snapshot opens a new epoch and drains every ring up to its cut,
// returning the merged, time-sorted trace. It is safe to call while
// recording continues: events published after the cut are left for the
// next snapshot.
func (c *Collector) Snapshot() *Trace {
	c.mu.Lock()
	c.epoch++
	tr := &Trace{
		Epoch: c.epoch,
		Clock: c.clockName,
		Lanes: map[int32]string{},
		Meta:  map[string]string{},
	}
	for k, v := range c.meta {
		tr.Meta[k] = v
	}
	type cutPoint struct {
		h   *Handle
		cut uint64
	}
	cuts := make([]cutPoint, 0, len(c.handles))
	for _, h := range c.handles {
		cuts = append(cuts, cutPoint{h, h.ring.head.Load()})
		tr.Lanes[h.lane] = h.label
	}
	// Drained cursors are guarded by mu; the ring reads themselves only
	// touch published slots, so writers are never blocked.
	for _, cp := range cuts {
		var dropped uint64
		tr.Events, dropped = cp.h.ring.drain(tr.Events, cp.h.drained, cp.cut)
		cp.h.drained = cp.cut
		tr.Dropped += dropped
	}
	c.mu.Unlock()
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].TS < tr.Events[j].TS })
	return tr
}

// Handle is one recording lane: a private ring plus the collector's
// clock. It implements obs.EventRecorder.
type Handle struct {
	c       *Collector
	lane    int32
	label   string
	ring    *ring
	drained uint64 // snapshot cursor; guarded by c.mu
}

// Lane returns the handle's lane id.
func (h *Handle) Lane() int32 { return h.lane }

// Event records one event in the handle's ring. obs.LaneDefault resolves
// to the handle's own lane.
//
//lf:hotpath
func (h *Handle) Event(k obs.EventKind, lane int32, arg uint64) {
	if lane == obs.LaneDefault {
		lane = h.lane
	}
	h.ring.record(h.c.clock(), k, lane, arg)
}

// Trace is one drained epoch: the merged, TS-sorted events of every ring,
// lane labels, and the recording metadata analysis needs.
type Trace struct {
	Events []Event
	// Lanes labels the collector-issued handle lanes. Machine-layer core
	// lanes (obs.MachineLane) are self-describing and not listed here.
	Lanes map[int32]string
	// Epoch is the snapshot generation that produced this trace.
	Epoch uint64
	// Dropped counts ring entries lost to overwriting before the drain.
	Dropped uint64
	// Clock names the timestamp domain: "wall-ns" or "sim-ns".
	Clock string
	// Meta carries harness-provided context. Reserved keys:
	//   sockets, cores_per_socket  — simulated topology
	//   lane_cores                 — "lane:core,..." queue-lane pinning
	//   variant, workload          — workload labels
	Meta map[string]string
}

// MetaInt returns the named Meta entry as an int, or def when absent or
// malformed.
func (t *Trace) MetaInt(key string, def int) int {
	var n int
	if _, err := fmt.Sscanf(t.Meta[key], "%d", &n); err != nil {
		return def
	}
	return n
}

// LaneCores decodes the lane_cores Meta entry into a lane→core map.
func (t *Trace) LaneCores() map[int32]int {
	out := map[int32]int{}
	s := t.Meta["lane_cores"]
	for len(s) > 0 {
		var lane, core int
		var rest string
		if n, _ := fmt.Sscanf(s, "%d:%d,%s", &lane, &core, &rest); n >= 2 {
			out[int32(lane)] = core
			if n == 3 {
				s = rest
				continue
			}
		}
		break
	}
	return out
}

// FormatLaneCores encodes a lane→core map for Trace.Meta["lane_cores"].
func FormatLaneCores(m map[int32]int) string {
	lanes := make([]int, 0, len(m))
	for l := range m {
		lanes = append(lanes, int(l))
	}
	sort.Ints(lanes)
	s := ""
	for i, l := range lanes {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d:%d", l, m[int32(l)])
	}
	return s
}
