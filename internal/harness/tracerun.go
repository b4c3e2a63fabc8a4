package harness

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// newCollector returns a flight recorder of ringSize events per ring,
// stamped with m's clock in simulated nanoseconds and carrying m's
// topology in its Meta. Beyond ringSize events a ring overwrites its
// oldest, counted in Trace.Dropped.
func newCollector(m *machine.Machine, ringSize int) *trace.Collector {
	cfg := m.Config()
	col := trace.New(
		trace.WithClock(func() uint64 { return uint64(cfg.NSPerOp(float64(m.Now()))) }),
		trace.WithClockName("sim-ns"),
		trace.WithRingSize(ringSize),
	)
	col.SetMeta("sockets", strconv.Itoa(cfg.Sockets))
	col.SetMeta("cores_per_socket", strconv.Itoa(cfg.CoresPerSocket))
	return col
}

// TraceQueue runs one variant under the mixed cross-socket workload of
// Telemetry with a flight recorder attached at both layers — the queue
// (operation, CAS, basket events on per-thread lanes) and the machine
// (coherence and HTM events on per-core lanes) — and returns the drained
// trace. Timestamps are simulated nanoseconds on the machine's own clock,
// so queue-level and machine-level events interleave exactly as the
// simulation ordered them.
//
// The trace carries the topology and lane→core pinning in its Meta, which
// is what the analyzer (trace.Analyze) and cmd/sbqtrace need to rebuild
// the paper's temporal figures: tripped-writer serialization chains (§3),
// abort cascades (§3.3), and the intra- vs cross-socket latency split
// (§4.3).
func TraceQueue(v Variant, o Options) *trace.Trace {
	o = o.withDefaults()
	m := o.newMachine(1)
	cfg := m.Config()
	n := o.widest()

	// Size the ring so a full run fits without overwriting: queue ops emit
	// a handful of events each, and contended machine-layer traffic
	// (coherence requests, aborts) multiplies that. Capped: beyond the cap
	// the recorder falls back to flight-recorder semantics.
	col := newCollector(m, min(64*(2*n)*o.OpsPerThread, 1<<21))
	rec := obs.NewWithEvents(col)
	m.SetRecorder(rec)
	q := buildQueue(m, v, n, 2*n, paperBasket, rec, core.DefaultOptions())

	// Producers on socket 0 (cores 0..n-1, tids 0..n-1); consumers on
	// socket 1 (cores cps..cps+n-1, tids n..2n-1), as in the paper's mixed
	// benchmark (§6.1). Queue lanes are tids; machine lanes are cores.
	laneCores := map[int32]int{}
	for t := 0; t < n; t++ {
		laneCores[int32(t)] = t
		laneCores[int32(n+t)] = cfg.CoresPerSocket + t
	}
	col.SetMeta("lane_cores", trace.FormatLaneCores(laneCores))
	col.SetMeta("variant", string(v))
	col.SetMeta("workload", "mixed")

	for t := 0; t < n; t++ {
		m.Go(t, func(p *machine.Proc) {
			p.Delay(p.RandN(200))
			for i := 0; i < o.OpsPerThread; i++ {
				q.Enqueue(p, t, element(t, i))
			}
		})
	}
	for t := 0; t < n; t++ {
		m.Go(cfg.CoresPerSocket+t, func(p *machine.Proc) {
			p.Delay(p.RandN(200))
			done := 0
			for done < o.OpsPerThread {
				if _, ok := q.Dequeue(p, n+t); ok {
					done++
				} else {
					p.Delay(50)
				}
			}
		})
	}
	m.Run()
	o.progress("trace %s %d threads done\n", v, 2*n)
	return col.Snapshot()
}

// TraceTxCAS records the raw-TxCAS cross-socket configuration of the
// fix ablation (§3.4.1): TxCAS threads on both sockets share one counter
// line, with no post-abort delay and no tripped-writer fix. This is the
// regime where post-abort check reads from the remote socket land inside
// a committing writer's xend drain window and trip it, so the resulting
// trace is dense in tripped-writer aborts — the input the analyzer's
// chain reconstruction (§3) is made for.
func TraceTxCAS(o Options) *trace.Trace {
	o = o.withDefaults()
	m := o.newMachine(1)
	perSocket := o.widest()

	// The contended regime emits far more events per operation than a queue
	// workload (every retry aborts, every abort cascades), so the ring gets
	// a larger per-op allowance before the cap.
	col := newCollector(m, min(512*(2*perSocket)*o.OpsPerThread, 1<<22))
	m.SetRecorder(obs.NewWithEvents(col))
	col.SetMeta("variant", "TxCAS")
	col.SetMeta("workload", "txcas")

	a := m.AllocLine(8, 0)
	opt := core.DefaultOptions()
	opt.PostAbortDelay = 0
	var cycles uint64
	for s := 0; s < 2; s++ {
		for t := 0; t < perSocket; t++ {
			o.goTxCAS(m, s*m.Config().CoresPerSocket+t, a, 400, opt, &cycles)
		}
	}
	m.Run()
	o.progress("trace txcas %d threads done\n", 2*perSocket)
	return col.Snapshot()
}
