package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// shard is one padded block of counters and histograms. Shards are written
// with uncontended atomics (each handle owns one) and read by Snapshot,
// which may run concurrently with writers.
type shard struct {
	_ [64]byte // keep neighboring shards off this shard's lines
	//lf:contended the hot per-handle event counters
	//lint:ignore padcheck single-writer shard: counters and hists share the owner's lines by design; the guard pads isolate the shard itself
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

// observe counts the sample before bucketing it, and Snapshot reads the
// buckets before the count, so a snapshot taken mid-observe never holds
// more bucketed samples than counted ones: an exported histogram's +Inf
// bucket (the count) never falls below its last finite bucket.
func (s *shard) observe(se Series, v uint64) {
	h := &s.hists[se]
	h.count.Add(1)
	h.buckets[stats.BucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Stats is the concrete Recorder: a base shard for callers that record
// through the Stats itself, plus any number of per-handle shards issued by
// Local. All shards are summed by Snapshot.
type Stats struct {
	base shard

	mu     sync.Mutex
	locals []*Local
}

// New returns an empty Stats recorder.
func New() *Stats { return &Stats{} }

// Inc implements Recorder on the shared base shard.
//
//lf:hotpath
func (s *Stats) Inc(c Counter) { s.base.inc(c) }

// Add implements Recorder on the shared base shard.
//
//lf:hotpath
func (s *Stats) Add(c Counter, d uint64) { s.base.add(c, d) }

// Observe implements Recorder on the shared base shard.
//
//lf:hotpath
func (s *Stats) Observe(se Series, v uint64) { s.base.observe(se, v) }

// Local issues a per-handle Recorder with its own padded shard, so that
// goroutines recording at high rates (e.g. one SBQ producer handle each)
// never contend on counter cache lines. The shard is included in every
// subsequent Snapshot of s.
func (s *Stats) Local() *Local {
	l := &Local{parent: s}
	s.mu.Lock()
	s.locals = append(s.locals, l)
	s.mu.Unlock()
	return l
}

// Snapshot sums all shards into a plain-value Snapshot. It is safe to call
// while recording continues; the result is a consistent-enough point-in-time
// view (counters are read individually, not under a global lock).
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	s.mu.Lock()
	shards := make([]*shard, 0, len(s.locals)+1)
	shards = append(shards, &s.base)
	for _, l := range s.locals {
		shards = append(shards, &l.shard)
	}
	s.mu.Unlock()
	for _, sh := range shards {
		for c := Counter(0); c < NumCounters; c++ {
			out.Counters[c] += sh.counters[c].Load()
		}
		for se := Series(0); se < NumSeries; se++ {
			h := &sh.hists[se]
			dst := &out.Series[se]
			for i := range h.buckets {
				dst.Buckets[i] += h.buckets[i].Load()
			}
			dst.Count += h.count.Load()
			dst.Sum += h.sum.Load()
		}
	}
	return out
}

// Local is a per-handle Recorder issued by Stats.Local. It must be used by
// one goroutine at a time (the same discipline as an SBQ handle), though
// its writes are atomic so Snapshot may read it concurrently.
type Local struct {
	parent *Stats
	shard  shard
}

// Inc implements Recorder on the handle's private shard.
//
//lf:hotpath
func (l *Local) Inc(c Counter) { l.shard.inc(c) }

// Add implements Recorder on the handle's private shard.
//
//lf:hotpath
func (l *Local) Add(c Counter, d uint64) { l.shard.add(c, d) }

// Observe implements Recorder on the handle's private shard.
//
//lf:hotpath
func (l *Local) Observe(se Series, v uint64) { l.shard.observe(se, v) }

// Snapshot returns the parent Stats' aggregate snapshot (all shards, not
// just this handle's).
func (l *Local) Snapshot() Snapshot { return l.parent.Snapshot() }
