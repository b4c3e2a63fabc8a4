package registry_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/faaq"
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
		ord, ok := registry.OrderingOf(name)
		if !ok {
			t.Fatalf("OrderingOf(%q) failed after Names listed it", name)
		}
		single := queuetest.FromRegistry(name, registry.Config{})
		t.Run(name, func(t *testing.T) {
			queuetest.CheckSequential(t, single)
			per := 500
			if testing.Short() {
				per = 100
			}
			switch ord {
			case registry.TotalFIFO:
				queuetest.CheckConcurrent(t, single, 4, 4, per)
			case registry.PerProducerFIFO:
				// Pin Shards to 3 so the sharded entries cover multi-shard
				// routing and work-stealing even where GOMAXPROCS is 1.
				relaxed := queuetest.FromRegistry(name, registry.Config{Shards: 3})
				queuetest.CheckConcurrentRelaxed(t, relaxed, 4, 4, per)
			default:
				t.Fatalf("entry %q has unknown ordering %v", name, ord)
			}
			queuetest.CheckDrainMultiset(t, single, 8, per)
		})
	}
}

// TestPointerConformance builds every entry at a pointer element type, the
// way sbqd builds its tenant queues at its job record. Producers enqueue
// freshly allocated elements that nothing but the queue references.
// Halfway, with consumers held back, a full collection runs; then
// consumers drain while producers enqueue the rest. A queue that hid a
// pointer from the collector would surface a freed-and-reused element (a
// broken tag), a duplicate or a loss. Every element must come out exactly
// once, intact, and in enqueue order per producer at each consumer.
func TestPointerConformance(t *testing.T) {
	type elem struct {
		producer, seq int
		tag           uint64
	}
	tagOf := func(p, i int) uint64 { return 0x9e3779b97f4a7c15 ^ uint64(p)<<32 ^ uint64(i) }
	const producers, consumers = 4, 4
	per := 1000
	if testing.Short() {
		per = 200
	}
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			inst, err := registry.BuildOf[*elem](name, registry.Config{Producers: producers, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			var half, prod, cons sync.WaitGroup
			start := make(chan struct{})
			half.Add(producers)
			for p := 0; p < producers; p++ {
				v := inst.ProducerView(p)
				prod.Add(1)
				go func() {
					defer prod.Done()
					for i := 0; i < per; i++ {
						if i == per/2 {
							half.Done()
							<-start
						}
						v.Enqueue(&elem{producer: p, seq: i, tag: tagOf(p, i)})
					}
				}()
			}
			var (
				mu      sync.Mutex
				seen    = make([][]bool, producers)
				got     atomic.Int64
				failure atomic.Value
			)
			for p := range seen {
				seen[p] = make([]bool, per)
			}
			fail := func(format string, args ...any) { failure.CompareAndSwap(nil, fmt.Sprintf(format, args...)) }
			for c := 0; c < consumers; c++ {
				v := inst.ConsumerView(c)
				cons.Add(1)
				go func() {
					defer cons.Done()
					<-start
					last := make([]int, producers)
					for p := range last {
						last[p] = -1
					}
					deadline := time.Now().Add(time.Minute)
					for got.Load() < producers*int64(per) && failure.Load() == nil {
						e, ok := v.Dequeue()
						if !ok {
							if time.Now().After(deadline) {
								fail("stalled at %d of %d elements", got.Load(), producers*per)
								return
							}
							runtime.Gosched()
							continue
						}
						if e == nil || e.producer < 0 || e.producer >= producers || e.seq < 0 || e.seq >= per || e.tag != tagOf(e.producer, e.seq) {
							fail("dequeued a corrupt element %+v", e)
							return
						}
						if e.seq <= last[e.producer] {
							fail("producer %d: seq %d after %d at one consumer", e.producer, e.seq, last[e.producer])
							return
						}
						last[e.producer] = e.seq
						mu.Lock()
						dup := seen[e.producer][e.seq]
						seen[e.producer][e.seq] = true
						mu.Unlock()
						if dup {
							fail("producer %d seq %d dequeued twice", e.producer, e.seq)
							return
						}
						got.Add(1)
					}
				}()
			}
			half.Wait()
			runtime.GC() // the first halves are reachable only through the queue
			close(start)
			prod.Wait()
			cons.Wait()
			if f := failure.Load(); f != nil {
				t.Fatal(f)
			}
			if n := got.Load(); n != producers*int64(per) {
				t.Fatalf("dequeued %d of %d", n, producers*per)
			}
			if e, ok := inst.ConsumerView(0).Dequeue(); ok {
				t.Fatalf("queue not empty after every element came out: %+v", e)
			}
		})
	}
}

// TestBatchConformance drives the batch surface of every entry through the
// sequential and concurrent batch checks.
func TestBatchConformance(t *testing.T) {
	for _, name := range registry.Names() {
		f := queuetest.FromRegistryConfig(name, registry.Config{Shards: 3})
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

// TestAllocPins pins every entry's heap cost: exact allocation counts for
// one enqueue/dequeue pair and for one k=8 EnqueueBatch/DequeueBatch round
// at 1 producer, and a bound on the bytes one pair allocates at 2
// producers. Shards is 2 throughout, so the sharded entries run their
// multi-shard routing. The figures follow from each entry's layout at
// uint64 elements:
//
//   - An SBQ node embeds its scalable basket: appending one is two
//     allocations, the 72 B node (80 B size class) and the basket's cell
//     slice of 16 B cells, one cell per producer of the queue. A pair
//     appends one node and a k=8 round eight; dequeues allocate nothing.
//   - A faaq shard allocates one segment per SegSize (1024) claimed
//     cells: 1024 16 B cells plus its id and link, 16400 B in the
//     18432 B size class, 18 B per cell. A pair claims one cell and a
//     round eight, so 1000 measured runs allocate at most eight
//     segments, and AllocsPerRun, which divides in integers, reads 0.
//
// Each bound is the layout's figure plus 8 B, so an SBQ node or a faaq
// cell that grows into the next size class fails it. CI's alloc-gates job
// runs this test; under -race it skips itself.
func TestAllocPins(t *testing.T) {
	if queuetest.RaceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	pins := map[string]struct{ pair, batch, pairBytes float64 }{
		// 80 B node + two 16 B cells (the 32 B class) = 112 B at 2 producers.
		"SBQ-CAS":   {2, 16, 120},
		"SBQ-DCAS":  {2, 16, 120},
		"SBQ-TxCAS": {2, 16, 120},
		// 18 B of segment per claimed cell.
		"Sharded-FAA": {0, 0, 26},
		// Two producers on two shards leave one producer per shard: an
		// 80 B node + one 16 B cell = 96 B.
		"Sharded-SBQ": {2, 16, 104},
	}
	for _, name := range registry.Names() {
		pin, ok := pins[name]
		if !ok {
			t.Errorf("%s: no allocation pin", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			views := func(producers int) (queue.BatchQueue[uint64], queue.BatchQueue[uint64]) {
				inst, err := registry.Build(name, registry.Config{Producers: producers, Shards: 2})
				if err != nil {
					t.Fatal(err)
				}
				return inst.ProducerView(0), inst.ConsumerView(0)
			}
			p, c := views(1)
			pair := func() {
				p.Enqueue(7)
				if _, ok := c.Dequeue(); !ok {
					t.Fatal("dequeue reported empty after an enqueue")
				}
			}
			if got := testing.AllocsPerRun(1000, pair); got != pin.pair {
				t.Errorf("enqueue/dequeue pair: %v allocations, want %v", got, pin.pair)
			}
			const k = 8
			vs, dst := make([]uint64, k), make([]uint64, k)
			round := func() {
				p.EnqueueBatch(vs)
				for got := 0; got < k; {
					n := c.DequeueBatch(dst[got:])
					if n == 0 {
						t.Fatalf("batch round ran dry at %d of %d", got, k)
					}
					got += n
				}
			}
			if got := testing.AllocsPerRun(1000, round); got != pin.batch {
				t.Errorf("k=%d batch round: %v allocations, want %v", k, got, pin.batch)
			}

			// A whole number of segments, so a faaq shard allocates
			// exactly pairs/SegSize of them.
			const pairs = 10 * faaq.SegSize
			p, c = views(2)
			pair()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < pairs; i++ {
				pair()
			}
			runtime.ReadMemStats(&after)
			if perPair := float64(after.TotalAlloc-before.TotalAlloc) / pairs; perPair > pin.pairBytes {
				t.Errorf("pair at 2 producers: %.1f B allocated, want <= %v", perPair, pin.pairBytes)
			}
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
		f := queuetest.FromRegistry(name, registry.Config{})
		t.Run(name, func(t *testing.T) {
			queuetest.StressShapes(t, f)
		})
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := registry.Build("no-such-queue", registry.Config{}); err == nil {
		t.Fatal("Build on an unknown name did not error")
	}
	if _, ok := registry.OrderingOf("no-such-queue"); ok {
		t.Fatal("OrderingOf found an unknown name")
	}
}

// TestOrderingContracts pins each entry's declared contract: the sharded
// front-ends are the only relaxed entries, and Ordering strings stay
// stable (they appear in logs and bench records).
func TestOrderingContracts(t *testing.T) {
	relaxed := map[string]bool{"Sharded-FAA": true, "Sharded-SBQ": true}
	for _, name := range registry.Names() {
		got, _ := registry.OrderingOf(name)
		want := registry.TotalFIFO
		if relaxed[name] {
			want = registry.PerProducerFIFO
		}
		if got != want {
			t.Errorf("%s: ordering %v, want %v", name, got, want)
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

// TestNewQueueRecordsNothing: building an entry is not an operation, so a
// fresh queue reads 0 in every counter, at four shards for the sharded
// entries. SBQ must build its sentinel's basket exhausted: draining it
// with an extraction counts a basket extract failure per queue or shard.
func TestNewQueueRecordsNothing(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			st := obs.New()
			if _, err := registry.Build(name, registry.Config{Producers: 4, Shards: 4, Recorder: st}); err != nil {
				t.Fatal(err)
			}
			snap := st.Snapshot()
			for c := obs.Counter(0); c < obs.NumCounters; c++ {
				if n := snap.Counter(c); n != 0 {
					t.Errorf("%s = %d on a fresh queue, want 0", c, n)
				}
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
type linkingCASes struct{ n atomic.Uint64 }

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
	events := &linkingCASes{}
	rec := obs.NewWithEvents(events)
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
	linking := events.n.Load()
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
				ShardRecorder: func(shard int) *obs.Stats {
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
