// Package repro's root benchmarks regenerate every figure of the paper's
// evaluation as testing.B benchmarks, one family per figure:
//
//	BenchmarkFig1_*    TxCAS vs FAA latency (Figure 1)
//	BenchmarkFig5_*    enqueue-only latency per queue (Figure 5)
//	BenchmarkFig6_*    dequeue-only latency per queue (Figure 6)
//	BenchmarkFig7_*    mixed workload per queue (Figure 7)
//	BenchmarkAblation_* §4.1 delay sweep, §5.3.4 basket sweep, §3.4.1 fix
//	BenchmarkNative_*  the native Go queues on real hardware
//
// Simulated benchmarks report sim_ns_per_op (simulated nanoseconds per
// queue operation, the paper's y-axis) alongside Go's wall-clock ns/op,
// which only measures how fast the simulator itself runs.
package repro

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/queue/queuetest"
	"repro/queue/registry"
	"repro/queue/sbq"
)

// benchOpts keeps simulated benchmarks small enough for go test -bench.
func benchOpts(threads int) harness.Options {
	return harness.Options{OpsPerThread: 100, Reps: 1, ThreadCounts: []int{threads}}
}

func reportSim(b *testing.B, results []harness.Result) {
	b.Helper()
	if len(results) == 0 {
		b.Fatal("no results")
	}
	b.ReportMetric(results[0].NSPerOp, "sim_ns_per_op")
	b.ReportMetric(results[0].Mops, "sim_Mops")
}

// --------------------------------------------------------------------------
// Figure 1: TxCAS vs FAA.

func BenchmarkFig1(b *testing.B) {
	for _, threads := range []int{1, 4, 16, 44} {
		for _, series := range []string{"FAA", "TxCAS"} {
			series := series
			b.Run(fmt.Sprintf("%s/threads=%d", series, threads), func(b *testing.B) {
				var last []harness.Result
				for i := 0; i < b.N; i++ {
					res := harness.Fig1(benchOpts(threads))
					for _, r := range res {
						if r.Series == series {
							last = []harness.Result{r}
						}
					}
				}
				reportSim(b, last)
			})
		}
	}
}

// --------------------------------------------------------------------------
// Figures 5-7: the five evaluated queues.

func BenchmarkFig5_EnqueueOnly(b *testing.B) {
	for _, v := range harness.AllVariants {
		v := v
		for _, threads := range []int{4, 16, 44} {
			b.Run(fmt.Sprintf("%s/threads=%d", v, threads), func(b *testing.B) {
				var last []harness.Result
				for i := 0; i < b.N; i++ {
					last = harness.EnqueueOnly([]harness.Variant{v}, benchOpts(threads))
				}
				reportSim(b, last)
			})
		}
	}
}

func BenchmarkFig6_DequeueOnly(b *testing.B) {
	for _, v := range harness.AllVariants {
		v := v
		for _, threads := range []int{4, 16, 44} {
			b.Run(fmt.Sprintf("%s/threads=%d", v, threads), func(b *testing.B) {
				var last []harness.Result
				for i := 0; i < b.N; i++ {
					last = harness.DequeueOnly([]harness.Variant{v}, benchOpts(threads))
				}
				reportSim(b, last)
			})
		}
	}
}

func BenchmarkFig7_Mixed(b *testing.B) {
	for _, v := range harness.AllVariants {
		v := v
		for _, threads := range []int{8, 44} {
			b.Run(fmt.Sprintf("%s/threads=%d", v, threads), func(b *testing.B) {
				var last []harness.Result
				for i := 0; i < b.N; i++ {
					last = harness.Mixed([]harness.Variant{v}, benchOpts(threads))
				}
				reportSim(b, last)
			})
		}
	}
}

// --------------------------------------------------------------------------
// Ablations.

func BenchmarkAblation_DelaySweep(b *testing.B) {
	for _, delayNS := range []float64{0, 270, 540} {
		delayNS := delayNS
		b.Run(fmt.Sprintf("delay=%.0fns/threads=32", delayNS), func(b *testing.B) {
			var last []harness.Result
			for i := 0; i < b.N; i++ {
				last = harness.DelaySweep([]float64{delayNS}, []int{32}, benchOpts(32))
			}
			reportSim(b, last)
		})
	}
}

func BenchmarkAblation_BasketSize(b *testing.B) {
	for _, size := range []int{8, 44, 88} {
		size := size
		b.Run(fmt.Sprintf("B=%d/threads=8", size), func(b *testing.B) {
			var last []harness.Result
			for i := 0; i < b.N; i++ {
				last = harness.BasketSweep([]int{size}, 8, benchOpts(8))
			}
			reportSim(b, last)
		})
	}
}

func BenchmarkAblation_TrippedWriterFix(b *testing.B) {
	for _, cfg := range []string{"no-delay", "no-delay+fix", "cross-socket-delay"} {
		cfg := cfg
		b.Run(cfg, func(b *testing.B) {
			var ns float64
			var tripped uint64
			for i := 0; i < b.N; i++ {
				for _, r := range harness.FixAblation(benchOpts(0)) {
					if r.Label == cfg {
						ns, tripped = r.NSPerOp, r.TrippedWriters
					}
				}
			}
			b.ReportMetric(ns, "sim_ns_per_op")
			b.ReportMetric(float64(tripped), "tripped_writers")
		})
	}
}

// BenchmarkExtension_PartitionedDequeue measures the §8 future-work
// extension: SBQ-HTM dequeues with partitioned basket extraction vs the
// paper's single-FAA basket.
func BenchmarkExtension_PartitionedDequeue(b *testing.B) {
	for _, v := range []harness.Variant{harness.SBQHTM, harness.SBQHTMPart} {
		v := v
		b.Run(fmt.Sprintf("%s/threads=44", v), func(b *testing.B) {
			var last []harness.Result
			for i := 0; i < b.N; i++ {
				last = harness.DequeueOnly([]harness.Variant{v}, benchOpts(44))
			}
			reportSim(b, last)
		})
	}
}

// --------------------------------------------------------------------------
// Native companion benchmarks: the adoptable library on real hardware.
// Queue selection comes from queue/registry — one table shared with
// cmd/sbqbench and the conformance suite.

func BenchmarkNative_Enqueue(b *testing.B) {
	for _, name := range registry.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			inst, err := registry.Build(name, registry.Config{Producers: 1})
			if err != nil {
				b.Fatal(err)
			}
			q := inst.ProducerView(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i) + 1)
			}
		})
	}
}

func BenchmarkNative_EnqueueDequeuePair(b *testing.B) {
	for _, name := range registry.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			inst, err := registry.Build(name, registry.Config{Producers: 1})
			if err != nil {
				b.Fatal(err)
			}
			q, cons := inst.ProducerView(0), inst.ConsumerView(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i) + 1)
				if _, ok := cons.Dequeue(); !ok {
					b.Fatal("unexpected empty")
				}
			}
		})
	}
}

func BenchmarkNative_ParallelMixed(b *testing.B) {
	for _, name := range registry.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			// RunParallel spawns GOMAXPROCS goroutines by default; size
			// the producer-view pool with generous headroom so each
			// goroutine gets a private view (SBQ handles must not be
			// shared).
			maxViews := 8*runtime.GOMAXPROCS(0) + 8
			inst, err := registry.Build(name, registry.Config{Producers: maxViews})
			if err != nil {
				b.Fatal(err)
			}
			cons := inst.ConsumerView(0)
			var next atomic.Int64
			var val atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1)) - 1
				q := inst.ProducerView(id % maxViews)
				for pb.Next() {
					q.Enqueue(val.Add(1))
					cons.Dequeue()
				}
			})
		})
	}
}

// BenchmarkNative_EnqueueBatch sweeps the batch size on the natively
// batch-capable hot queues: ns/op is per element, so the curve falling as
// k grows is the amortization (one FAA or linking CAS per batch) showing
// up directly.
func BenchmarkNative_EnqueueBatch(b *testing.B) {
	for _, name := range []string{"SBQ-CAS", "Sharded-FAA", "Sharded-SBQ"} {
		for _, k := range []int{1, 8, 64} {
			name, k := name, k
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				inst, err := registry.Build(name, registry.Config{Producers: 1})
				if err != nil {
					b.Fatal(err)
				}
				q := inst.ProducerView(0)
				vs := make([]uint64, k)
				for i := range vs {
					vs[i] = uint64(i) + 1
				}
				b.ResetTimer()
				for i := 0; i < b.N; i += k {
					q.EnqueueBatch(vs)
				}
			})
		}
	}
}

// TestNativeSBQPairAllocs pins the heap cost of one GC-mode SBQ-CAS
// enqueue/dequeue pair built through the registry: one allocation at 1
// producer, the node with its embedded scalable basket, whose linker's
// element is a node field and whose joiner-cell slice is empty, and at
// most 104 B at 2 producers (96 B: the 72 B node in the 80 B size class
// plus one packed 16 B joiner cell). A basket split back out of its
// node, a per-node options struct, a cell for the linker's element, a
// re-padded cell or a node grown back into the 96 B size class each
// fails a check. This package makes an
// sbq.New instantiation of its own, and the cost must not depend on which
// package's instantiation the registry's entry runs.
func TestNativeSBQPairAllocs(t *testing.T) {
	if queuetest.RaceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	// An sbq.New[uint64] instantiation compiled in this package, which the
	// linker may also use for the registry's entry.
	_ = sbq.New[uint64](sbq.WithEnqueuers(1))
	pair := func(producers int) func() {
		inst, err := registry.Build("SBQ-CAS", registry.Config{Producers: producers})
		if err != nil {
			t.Fatal(err)
		}
		p, c := inst.ProducerView(0), inst.ConsumerView(0)
		return func() {
			p.Enqueue(1)
			if _, ok := c.Dequeue(); !ok {
				t.Fatal("unexpected empty")
			}
		}
	}
	if allocs := testing.AllocsPerRun(1000, pair(1)); allocs != 1 {
		t.Fatalf("GC-mode SBQ-CAS pair: %v allocations, want 1", allocs)
	}
	const pairs = 10000
	run := pair(2)
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perPair := float64(after.TotalAlloc-before.TotalAlloc) / pairs; perPair > 104 {
		t.Fatalf("GC-mode SBQ-CAS pair at 2 producers: %.1f B allocated, want <= 104", perPair)
	}
}

// BenchmarkNative_SBQAppendStrategies compares plain and delayed CAS
// try_append under parallel enqueue pressure (the SBQ-CAS tradeoff),
// through the registry entries that configure them.
func BenchmarkNative_SBQAppendStrategies(b *testing.B) {
	for _, s := range []struct{ name, entry string }{
		{"PlainCAS", "SBQ-CAS"},
		{"DelayedCAS", "SBQ-DCAS"},
	} {
		s := s
		b.Run(s.name, func(b *testing.B) {
			maxViews := 8*runtime.GOMAXPROCS(0) + 8
			inst, err := registry.Build(s.entry, registry.Config{Producers: maxViews})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1)-1) % maxViews
				p := inst.ProducerView(id)
				i := uint64(0)
				for pb.Next() {
					i++
					p.Enqueue(uint64(id+1)<<40 | i)
				}
			})
		})
	}
}

// BenchmarkSBQ measures the telemetry layer's overhead on the SBQ hot path
// under parallel mixed load. recorder=off (a nil recorder) pays a single
// nil check per event site, while recorder=stats shows the cost of live
// counters.
func BenchmarkSBQ(b *testing.B) {
	recorders := []struct {
		name string
		rec  func() *obs.Stats
	}{
		{"recorder=off", func() *obs.Stats { return nil }},
		{"recorder=stats", obs.New},
	}
	for _, rc := range recorders {
		rc := rc
		b.Run(rc.name, func(b *testing.B) {
			maxViews := 8*runtime.GOMAXPROCS(0) + 8
			q := sbq.New[uint64](sbq.WithEnqueuers(maxViews), sbq.WithRecorder(rc.rec()))
			var val atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := q.NewHandle()
				for pb.Next() {
					h.Enqueue(val.Add(1))
					q.Dequeue()
				}
			})
		})
	}
}
