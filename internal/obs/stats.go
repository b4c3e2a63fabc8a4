package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// shard is one padded block of counters and histograms. Every Stats owns
// one; Snapshot reads it while writers keep recording.
type shard struct {
	_ [64]byte // keep neighboring shards off this shard's lines
	//lf:contended the event counters every record of this scope writes
	//lint:ignore padcheck one scope's block: its counters and histograms share lines by design; the guard pads isolate it from other scopes
	counters [NumCounters]atomic.Uint64
	hists    [NumSeries]histShard
	_        [64]byte
}

type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [stats.HistBuckets]atomic.Uint64
}

func (s *shard) inc(c Counter)           { s.counters[c].Add(1) }
func (s *shard) add(c Counter, d uint64) { s.counters[c].Add(d) }

// observe counts the sample before bucketing it, and addTo reads the
// buckets before the count, so a snapshot taken mid-observe never holds
// more bucketed samples than counted ones: an exported histogram's +Inf
// bucket (the count) never falls below its last finite bucket.
func (s *shard) observe(se Series, v uint64) {
	h := &s.hists[se]
	h.count.Add(1)
	h.buckets[stats.BucketOf(v)].Add(1)
	h.sum.Add(v)
}

// addTo adds the shard's current values into out.
func (s *shard) addTo(out *Snapshot) {
	for c := Counter(0); c < NumCounters; c++ {
		out.Counters[c] += s.counters[c].Load()
	}
	for se := Series(0); se < NumSeries; se++ {
		h := &s.hists[se]
		dst := &out.Series[se]
		for i := range h.buckets {
			dst.Buckets[i] += h.buckets[i].Load()
		}
		dst.Count += h.count.Load()
		dst.Sum += h.sum.Load()
	}
}

// Stats is the repository's one telemetry recorder: one padded shard of
// atomic counters and histograms, plus the child scopes issued by Scope. A
// record lands only in the shard of the Stats it was made on; Snapshot sums
// that shard and, recursively, every child's. So each event costs one set
// of atomic adds however many scopes report it, and wider scopes are built
// at read time. A root built by NewWithEvents also carries a flight
// recorder, which every scope of it hands out through Events.
type Stats struct {
	base shard

	ev       EventRecorder // inherited by every Scope
	mu       sync.Mutex
	children []*Stats // append-only
}

// New returns an empty Stats recorder that records no timeline events.
func New() *Stats { return &Stats{} }

// NewWithEvents returns an empty Stats recorder whose scopes all carry ev,
// so instrumentation attached to any of them emits timeline events into
// ev besides counting.
func NewWithEvents(ev EventRecorder) *Stats { return &Stats{ev: ev} }

// Events returns the event recorder this scope's root was built with, or
// nil when s is nil or records counters only. Instrumented code calls it
// once at construction, so each event site costs one nil check.
func (s *Stats) Events() EventRecorder {
	if s == nil {
		return nil
	}
	return s.ev
}

// Inc adds one to counter c in this scope's own shard.
//
//lf:hotpath
func (s *Stats) Inc(c Counter) { s.base.inc(c) }

// Add adds d to counter c in this scope's own shard.
//
//lf:hotpath
func (s *Stats) Add(c Counter, d uint64) { s.base.add(c, d) }

// Observe records a nanosecond value in series se of this scope's own
// shard.
//
//lf:hotpath
func (s *Stats) Observe(se Series, v uint64) { s.base.observe(se, v) }

// Scope returns a new child scope of s, carrying s's event recorder.
// Records on the child land only in the child's own shard; the child's
// counts appear in every later Snapshot of s (and of s's ancestors) for as
// long as s lives, and a Snapshot of the child holds only the child's
// subtree. Scope may be called while other goroutines record into s and
// its children.
func (s *Stats) Scope() *Stats {
	c := NewWithEvents(s.ev)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Snapshot sums this scope's shard and its children's, recursively, into
// a plain-value Snapshot. It is safe to call while recording continues:
// counters are read one by one, not under a global lock, so the result is
// a consistent-enough point-in-time view, and a later Snapshot never reads
// a counter lower than an earlier one did.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	s.addTo(&out)
	return out
}

func (s *Stats) addTo(out *Snapshot) {
	s.base.addTo(out)
	s.mu.Lock()
	children := s.children
	s.mu.Unlock()
	for _, c := range children {
		c.addTo(out)
	}
}
