package registry_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/queuetest"
	"repro/queue/registry"
)

// TestConformance runs the conformance suite over every registered queue:
// one table, no per-implementation switch. Per-package tests keep the
// heavier RunAll shapes; this table uses a reduced load so the whole
// registry stays cheap under go test ./...
//
// The concurrent check is picked from the entry's declared ordering
// contract: TotalFIFO entries run the linearizability checker,
// PerProducerFIFO entries (the sharded front-ends) run the relaxed check —
// exactly-once plus per-consumer per-producer order.
func TestConformance(t *testing.T) {
	names := registry.Names()
	want := []string{"SBQ-CAS", "SBQ-DCAS", "SBQ-TxCAS", "Sharded-FAA", "Sharded-SBQ"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registry entries %v, want %v", names, want)
	}
	for _, name := range names {
		e, ok := registry.LookupEntry(name)
		if !ok {
			t.Fatalf("LookupEntry(%q) failed after Names listed it", name)
		}
		// Pin Shards to 3 so the sharded entries cover multi-shard routing
		// and work-stealing even where GOMAXPROCS is 1; unsharded entries
		// ignore the field.
		f := queuetest.FromRegistryConfig(e.Build, registry.Config{Shards: 3})
		single := queuetest.FromRegistry(e.Build)
		t.Run(name, func(t *testing.T) {
			queuetest.CheckSequential(t, single)
			per := 500
			if testing.Short() {
				per = 100
			}
			switch e.Ordering {
			case registry.TotalFIFO:
				queuetest.CheckConcurrent(t, single, 4, 4, per)
			case registry.PerProducerFIFO:
				relaxed := func(producers int) (func(int) queue.Queue[uint64], func(int) queue.Queue[uint64]) {
					p, c := f(producers)
					return func(i int) queue.Queue[uint64] { return p(i) },
						func(i int) queue.Queue[uint64] { return c(i) }
				}
				queuetest.CheckConcurrentRelaxed(t, relaxed, 4, 4, per)
			default:
				t.Fatalf("entry %q has unknown ordering %v", name, e.Ordering)
			}
			queuetest.CheckDrainMultiset(t, single, 8, per)
		})
	}
}

// TestBatchConformance drives the batch surface of every entry through the
// sequential and concurrent batch checks.
func TestBatchConformance(t *testing.T) {
	for _, name := range registry.Names() {
		e, ok := registry.LookupEntry(name)
		if !ok {
			t.Fatalf("LookupEntry(%q) failed after Names listed it", name)
		}
		f := queuetest.FromRegistryConfig(e.Build, registry.Config{Shards: 3})
		t.Run(name, func(t *testing.T) {
			queuetest.CheckBatchSequential(t, f)
			per := 400
			if testing.Short() {
				per = 80
			}
			queuetest.CheckBatchConcurrent(t, f, 4, 4, 8, per)
		})
	}
}

// TestAllocFree gates every entry's pooled-node mode at zero steady-state
// heap allocations, single and batch operations alike — the dynamic half
// of the zero-alloc hot-path invariant (the static half is lfcheck's
// hotpath+allocfree analyzers). CI's alloc-gates job runs this test with
// GOGC=off; under -race it skips itself.
func TestAllocFree(t *testing.T) {
	for _, name := range registry.Names() {
		e, ok := registry.LookupEntry(name)
		if !ok {
			t.Fatalf("LookupEntry(%q) failed after Names listed it", name)
		}
		// Shards pinned to 2 so the sharded entries gate the multi-shard
		// routing path, not a degenerate single-shard build.
		f := queuetest.FromRegistryConfig(e.Build, registry.Config{Pooled: true, Shards: 2})
		t.Run(name, func(t *testing.T) {
			queuetest.CheckAllocFree(t, f)
		})
	}
}

// TestPooledConformance re-runs the conformance checks over every entry
// in pooled-node mode: node recycling under epoch guards must preserve
// exactly-once delivery and the entry's ordering contract, not just
// allocation counts.
func TestPooledConformance(t *testing.T) {
	for _, name := range registry.Names() {
		e, ok := registry.LookupEntry(name)
		if !ok {
			t.Fatalf("LookupEntry(%q) failed after Names listed it", name)
		}
		cfg := registry.Config{Pooled: true, Shards: 3}
		f := queuetest.FromRegistryConfig(e.Build, cfg)
		single := queuetest.FromRegistryConfig(e.Build, cfg)
		t.Run(name, func(t *testing.T) {
			asFactory := func(producers int) (func(int) queue.Queue[uint64], func(int) queue.Queue[uint64]) {
				p, c := single(producers)
				return func(i int) queue.Queue[uint64] { return p(i) },
					func(i int) queue.Queue[uint64] { return c(i) }
			}
			queuetest.CheckSequential(t, asFactory)
			per := 500
			if testing.Short() {
				per = 100
			}
			switch e.Ordering {
			case registry.TotalFIFO:
				queuetest.CheckConcurrent(t, asFactory, 4, 4, per)
			case registry.PerProducerFIFO:
				relaxed := func(producers int) (func(int) queue.Queue[uint64], func(int) queue.Queue[uint64]) {
					p, c := f(producers)
					return func(i int) queue.Queue[uint64] { return p(i) },
						func(i int) queue.Queue[uint64] { return c(i) }
				}
				queuetest.CheckConcurrentRelaxed(t, relaxed, 4, 4, per)
			default:
				t.Fatalf("entry %q has unknown ordering %v", name, e.Ordering)
			}
			queuetest.CheckBatchSequential(t, f)
			queuetest.CheckBatchConcurrent(t, f, 4, 4, 8, per)
		})
	}
}

// TestPooledStress runs the stress shapes over every entry in pooled-node
// mode. Under -race (the CI test job) this is the suite that shakes out
// missing happens-before edges in the retire/advance interplay of the
// reclaim-backed pools.
func TestPooledStress(t *testing.T) {
	for _, name := range registry.Names() {
		e, ok := registry.LookupEntry(name)
		if !ok {
			t.Fatalf("LookupEntry(%q) failed after Names listed it", name)
		}
		f := queuetest.FromRegistry(func(cfg registry.Config) registry.Instance {
			cfg.Pooled = true
			return e.Build(cfg)
		})
		t.Run(name, func(t *testing.T) {
			queuetest.StressShapes(t, f)
		})
	}
}

// TestStress runs the queuetest stress variant — exactly-once delivery
// under churn, no history recording — over every registry entry at
// GOMAXPROCS 1, 2, and NumCPU. Its value multiplies under -race (the CI
// test job), where scheduler-width changes shake out missing
// happens-before edges.
func TestStress(t *testing.T) {
	for _, name := range registry.Names() {
		b, ok := registry.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed after Names listed it", name)
		}
		f := queuetest.FromRegistry(b)
		t.Run(name, func(t *testing.T) {
			queuetest.StressShapes(t, f)
		})
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := registry.Build("no-such-queue", registry.Config{}); err == nil {
		t.Fatal("Build on an unknown name did not error")
	}
}

// TestOrderingContracts pins each entry's declared contract: the sharded
// front-ends are the only relaxed entries, and Ordering strings stay
// stable (they appear in logs and bench records).
func TestOrderingContracts(t *testing.T) {
	relaxed := map[string]bool{"Sharded-FAA": true, "Sharded-SBQ": true}
	for _, name := range registry.Names() {
		e, _ := registry.LookupEntry(name)
		want := registry.TotalFIFO
		if relaxed[name] {
			want = registry.PerProducerFIFO
		}
		if e.Ordering != want {
			t.Errorf("%s: ordering %v, want %v", name, e.Ordering, want)
		}
	}
	if registry.TotalFIFO.String() != "total-fifo" || registry.PerProducerFIFO.String() != "per-producer-fifo" {
		t.Errorf("Ordering strings drifted: %q, %q", registry.TotalFIFO, registry.PerProducerFIFO)
	}
}

// TestRecorderThreading verifies that a recorder handed to Build reaches
// the queue's telemetry hooks for every entry. The front-end must not
// double-count: sharded entries thread the recorder into their sub-queues,
// so EnqOps/DeqOps still count elements exactly once.
func TestRecorderThreading(t *testing.T) {
	for _, name := range registry.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			st := obs.New()
			inst, err := registry.Build(name, registry.Config{Producers: 2, Shards: 2, Recorder: st})
			if err != nil {
				t.Fatal(err)
			}
			p0, p1 := inst.ProducerView(0), inst.ProducerView(1)
			c := inst.ConsumerView(0)
			const per = 200
			for i := 0; i < per; i++ {
				p0.Enqueue(uint64(1)<<32 | uint64(i))
				p1.Enqueue(uint64(2)<<32 | uint64(i))
			}
			got := 0
			for {
				if _, ok := c.Dequeue(); !ok {
					break
				}
				got++
			}
			if got != 2*per {
				t.Fatalf("drained %d of %d", got, 2*per)
			}
			snap := st.Snapshot()
			if snap.Counter(obs.EnqOps) != 2*per {
				t.Errorf("EnqOps = %d, want %d", snap.Counter(obs.EnqOps), 2*per)
			}
			if snap.Counter(obs.DeqOps) != 2*per {
				t.Errorf("DeqOps = %d, want %d", snap.Counter(obs.DeqOps), 2*per)
			}
			if snap.Counter(obs.DeqEmpty) == 0 {
				t.Error("DeqEmpty never incremented on the draining dequeue")
			}
		})
	}
}

// TestBatchRecorderThreading checks the batch counters registry-wide:
// driving k elements per EnqueueBatch must report EnqOps in elements, and
// every entry, each with a native batch path, must report one EnqBatches
// per batch and fewer DeqBatches than elements (the amortization the
// counters exist to expose).
func TestBatchRecorderThreading(t *testing.T) {
	for _, name := range registry.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			st := obs.New()
			inst, err := registry.Build(name, registry.Config{Producers: 1, Shards: 2, Recorder: st})
			if err != nil {
				t.Fatal(err)
			}
			p := inst.ProducerView(0)
			const rounds, k = 10, 8
			vs := make([]uint64, k)
			for r := 0; r < rounds; r++ {
				for i := range vs {
					vs[i] = uint64(r*k + i + 1)
				}
				p.EnqueueBatch(vs)
			}
			c := inst.ConsumerView(0)
			dst := make([]uint64, k)
			got := 0
			for {
				n := c.DequeueBatch(dst)
				if n == 0 {
					break
				}
				got += n
			}
			if got != rounds*k {
				t.Fatalf("drained %d of %d", got, rounds*k)
			}
			snap := st.Snapshot()
			if snap.Counter(obs.EnqOps) != rounds*k {
				t.Errorf("EnqOps = %d, want %d (elements, not batches)", snap.Counter(obs.EnqOps), rounds*k)
			}
			if b := snap.Counter(obs.EnqBatches); b != rounds {
				t.Errorf("EnqBatches = %d, want %d", b, rounds)
			}
			if b := snap.Counter(obs.DeqBatches); b == 0 || b > uint64(rounds*k) {
				t.Errorf("DeqBatches = %d, want within (0, %d]", b, rounds*k)
			}
		})
	}
}

// linkingCASes counts EvCASAttempt events, which only the linking-CAS
// engine emits (pointer catch-up CASes count in CASAttempts silently).
type linkingCASes struct {
	*obs.Stats
	n atomic.Uint64
}

func (r *linkingCASes) Event(k obs.EventKind, _ int32, _ uint64) {
	if k == obs.EvCASAttempt {
		r.n.Add(1)
	}
}

// TestBuildDelayedCAS checks that SBQ-DCAS is the §4.1 delayed CAS: the
// engine's policy diverts every linking CAS to the plain path after the
// delay, so every issued linking CAS is a fallback and nothing
// soft-aborts.
func TestBuildDelayedCAS(t *testing.T) {
	rec := &linkingCASes{Stats: obs.New()}
	const producers, per = 2, 200
	inst, err := registry.Build("SBQ-DCAS", registry.Config{Producers: producers, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		v := inst.ProducerView(p)
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				v.Enqueue(base + i)
			}
		}(uint64(p * per))
	}
	wg.Wait()
	c := inst.ConsumerView(0)
	for i := 0; i < producers*per; i++ {
		if _, ok := c.Dequeue(); !ok {
			t.Fatalf("dequeue %d found the queue empty", i)
		}
	}
	snap := rec.Snapshot()
	linking := rec.n.Load()
	if linking == 0 {
		t.Fatal("no linking CAS was issued")
	}
	if got := snap.Counter(obs.CASFallbacks); got != linking {
		t.Errorf("CASFallbacks=%d, want %d: every issued linking CAS", got, linking)
	}
	if soft := snap.Counter(obs.TxSoftAborts); soft != 0 {
		t.Errorf("TxSoftAborts=%d, want 0: a delayed CAS never watches", soft)
	}
}

// TestConfigValidate is the table for Config.Validate and its enforcement
// in Build: zero values are documented defaults and must stay valid, while
// negative counts must produce a named-field error instead of a panic deep
// inside a constructor.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     registry.Config
		wantErr string // substring; "" means valid
	}{
		{"zero value is the default config", registry.Config{}, ""},
		{"explicit positives", registry.Config{Producers: 4, Shards: 2}, ""},
		{"zero shards selects the entry default", registry.Config{Producers: 1, Shards: 0}, ""},
		{"negative producers", registry.Config{Producers: -1}, "Producers"},
		{"negative shards", registry.Config{Shards: -3}, "Shards"},
		{"zero tx window selects the engine default", registry.Config{TxWindow: 0}, ""},
		{"explicit tx window", registry.Config{TxWindow: 270 * time.Nanosecond}, ""},
		{"negative tx window", registry.Config{TxWindow: -time.Microsecond}, "TxWindow"},
		{"first bad field wins", registry.Config{Producers: -1, Shards: -1}, "Producers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
			// Build must reject the same config without reaching the
			// builder (which might panic); it validates before the name
			// lookup, so one entry stands for all.
			if _, berr := registry.Build("SBQ-CAS", tc.cfg); berr == nil ||
				!strings.Contains(berr.Error(), tc.wantErr) {
				t.Fatalf("Build() = %v, want error mentioning %q", berr, tc.wantErr)
			}
		})
	}
}

// TestBuildTxCASWindow builds the TxCAS entry with an explicit speculation
// window and checks the queue works and reports engine telemetry — the
// path sbqbench's -txcas sweep drives.
func TestBuildTxCASWindow(t *testing.T) {
	for _, w := range []time.Duration{0, time.Microsecond} {
		st := obs.New()
		inst, err := registry.Build("SBQ-TxCAS", registry.Config{Producers: 1, Recorder: st, TxWindow: w})
		if err != nil {
			t.Fatal(err)
		}
		p, c := inst.ProducerView(0), inst.ConsumerView(0)
		const n = 100
		for i := uint64(0); i < n; i++ {
			p.Enqueue(i)
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := c.Dequeue(); !ok || v != i {
				t.Fatalf("window %v: dequeue %d = (%d, %v)", w, i, v, ok)
			}
		}
		if st.Snapshot().Counter(obs.CASAttempts) == 0 {
			t.Errorf("window %v: no CAS attempts recorded through the engine", w)
		}
	}
}

// TestBuildSharded negative shard counts used to panic inside
// sharded.buildOptions; they must now surface as Build errors.
func TestBuildShardedNegativeShards(t *testing.T) {
	if _, err := registry.Build("Sharded-FAA", registry.Config{Producers: 2, Shards: -1}); err == nil {
		t.Fatal("Build(Sharded-FAA, Shards: -1) succeeded, want error")
	}
}

// TestShardRecorder verifies per-shard telemetry routing: with a
// ShardRecorder installed, each shard's queue counters land in that
// shard's recorder, the per-shard sum accounts for every element, and the
// front-end's own steal counters still go to the global Recorder.
func TestShardRecorder(t *testing.T) {
	for _, name := range []string{"Sharded-FAA", "Sharded-SBQ"} {
		t.Run(name, func(t *testing.T) {
			const shards, ops = 4, 64
			global := obs.New()
			perShard := make([]*obs.Stats, shards)
			for i := range perShard {
				perShard[i] = global.Scope()
			}
			inst, err := registry.Build(name, registry.Config{
				Producers: 1,
				Shards:    shards,
				Recorder:  global,
				ShardRecorder: func(shard int) obs.Recorder {
					return perShard[shard]
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			p, c := inst.ProducerView(0), inst.ConsumerView(0)
			for i := uint64(0); i < ops; i++ {
				p.Enqueue(i)
			}
			got := 0
			for {
				if _, ok := c.Dequeue(); !ok {
					break
				}
				got++
			}
			if got != ops {
				t.Fatalf("dequeued %d of %d", got, ops)
			}
			var merged obs.Snapshot
			active := 0
			for _, st := range perShard {
				snap := st.Snapshot()
				if snap.Counter(obs.EnqOps) > 0 {
					active++
				}
				merged.Merge(snap)
			}
			if merged.Counter(obs.EnqOps) != ops || merged.Counter(obs.DeqOps) != ops {
				t.Fatalf("per-shard sums enq=%d deq=%d, want %d",
					merged.Counter(obs.EnqOps), merged.Counter(obs.DeqOps), ops)
			}
			if active == 0 {
				t.Fatal("no shard recorded any enqueue")
			}
			g := global.Snapshot()
			if g.Counter(obs.EnqOps) != ops {
				t.Fatalf("global enq = %d, want %d (shard scopes summed into their parent)", g.Counter(obs.EnqOps), ops)
			}
		})
	}
}

// TestShardRecorderNilFallsBack pins the compatibility contract: without a
// ShardRecorder, sharded entries route shard telemetry to Recorder exactly
// as before.
func TestShardRecorderNilFallsBack(t *testing.T) {
	global := obs.New()
	inst, err := registry.Build("Sharded-FAA", registry.Config{Shards: 2, Recorder: global})
	if err != nil {
		t.Fatal(err)
	}
	inst.ProducerView(0).Enqueue(7)
	if _, ok := inst.ConsumerView(0).Dequeue(); !ok {
		t.Fatal("dequeue failed")
	}
	snap := global.Snapshot()
	if snap.Counter(obs.EnqOps) != 1 || snap.Counter(obs.DeqOps) != 1 {
		t.Fatalf("global counters enq=%d deq=%d", snap.Counter(obs.EnqOps), snap.Counter(obs.DeqOps))
	}
}
