package obs

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestSnapshotMergeZeroAndEmpty covers the degenerate shapes: merging an
// empty snapshot is the identity, and merging into an empty one copies.
func TestSnapshotMergeZeroAndEmpty(t *testing.T) {
	src := New()
	src.Inc(CASAttempts)
	src.Add(CASFailures, 3)
	src.Observe(EnqLatency, 0) // zero value: bucket 0
	src.Observe(EnqLatency, 250)
	snap := src.Snapshot()

	before := snap
	snap.Merge(Snapshot{}) // empty into populated
	if snap != before {
		t.Fatal("merge with empty snapshot changed the receiver")
	}

	var empty Snapshot
	empty.Merge(before) // populated into empty
	if empty != before {
		t.Fatal("merge into empty snapshot is not a copy")
	}
	if empty.Series[EnqLatency].Buckets[0] != 1 {
		t.Fatalf("zero observation lost: %+v", empty.Series[EnqLatency])
	}
}

// TestSnapshotMergeAccumulates verifies counters add and every series
// histogram merges bucket-wise, including out-of-span values clamped into
// the last bucket.
func TestSnapshotMergeAccumulates(t *testing.T) {
	a, b := New(), New()
	a.Add(EnqOps, 10)
	b.Add(EnqOps, 5)
	b.Add(DeqOps, 7)
	a.Observe(DeqLatency, 100)
	b.Observe(DeqLatency, 100)
	b.Observe(DeqLatency, math.MaxUint64) // clamps to the last bucket

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if got := sa.Counter(EnqOps); got != 15 {
		t.Fatalf("EnqOps = %d, want 15", got)
	}
	if got := sa.Counter(DeqOps); got != 7 {
		t.Fatalf("DeqOps = %d, want 7", got)
	}
	h := sa.Series[DeqLatency]
	if h.Count != 3 {
		t.Fatalf("series count = %d, want 3", h.Count)
	}
	if h.Buckets[stats.BucketOf(100)] != 2 {
		t.Fatalf("bucket(100) = %d, want 2", h.Buckets[stats.BucketOf(100)])
	}
	if h.Buckets[stats.HistBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", h.Buckets[stats.HistBuckets-1])
	}

	// Merge is not idempotent: a second merge adds again.
	sa.Merge(sb)
	if got := sa.Counter(EnqOps); got != 20 {
		t.Fatalf("after second merge EnqOps = %d, want 20", got)
	}
}

// TestSnapshotMergeAdditivityAcrossTenants models the export layer's
// invariant: when every tenant records into a child scope of one global
// Stats (and each tenant's queue shard into a child of the tenant's), the
// merge of the per-tenant snapshots equals the global snapshot, counter
// for counter and bucket for bucket.
func TestSnapshotMergeAdditivityAcrossTenants(t *testing.T) {
	global := New()
	tenants := []*Stats{global.Scope(), global.Scope(), global.Scope()}
	for i, ts := range tenants {
		ts.Add(SrvSubmits, uint64(10*(i+1)))
		ts.Inc(SrvAcks)
		ts.Observe(LeaseLatency, uint64(1<<uint(i+4)))
		ts.Observe(AckLatency, uint64(100*(i+1)))
		shard := ts.Scope()
		shard.Add(EnqOps, uint64(i+1))
		shard.Observe(EnqLatency, uint64(50*(i+1)))
	}

	var merged Snapshot
	for _, ts := range tenants {
		merged.Merge(ts.Snapshot())
	}
	if got, want := merged, global.Snapshot(); got != want {
		t.Fatalf("merged per-tenant snapshots != global snapshot:\n got %+v\nwant %+v", got, want)
	}
	if merged.Counter(SrvSubmits) != 60 || merged.Counter(SrvAcks) != 3 || merged.Counter(EnqOps) != 6 {
		t.Fatalf("unexpected merged counters: submits=%d acks=%d enq=%d",
			merged.Counter(SrvSubmits), merged.Counter(SrvAcks), merged.Counter(EnqOps))
	}
}

// TestSnapshotRateZeroDenominator pins the division-by-zero contract the
// export layer's derived gauges rely on: zero denominator → rate 0, never
// NaN/Inf, even with a nonzero numerator.
func TestSnapshotRateZeroDenominator(t *testing.T) {
	var s Snapshot
	if got := s.Rate(CASFailures, CASAttempts); got != 0 {
		t.Fatalf("Rate on empty snapshot = %v, want 0", got)
	}
	s.Counters[CASFailures] = 7 // numerator without denominator
	got := s.Rate(CASFailures, CASAttempts)
	if got != 0 || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Rate with zero denominator = %v, want 0", got)
	}
	if got := s.CASFailureRate(); got != 0 {
		t.Fatalf("CASFailureRate with zero attempts = %v, want 0", got)
	}
	if got := s.AbortRate(); got != 0 {
		t.Fatalf("AbortRate with zero starts = %v, want 0", got)
	}
	s.Counters[CASAttempts] = 14
	if got := s.CASFailureRate(); got != 0.5 {
		t.Fatalf("CASFailureRate = %v, want 0.5", got)
	}
}
