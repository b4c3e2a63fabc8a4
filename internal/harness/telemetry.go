package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TelemetrySnapshot is the result of one instrumented variant run: the two
// telemetry layers, kept separate so queue-level events (operations,
// try_append outcomes, basket outcomes) are never conflated with the
// machine-level traffic they generate (coherence messages, HTM events, raw
// CAS outcomes).
type TelemetrySnapshot struct {
	Variant Variant
	Threads int // producers + consumers
	// Queue holds queue-level counters and the harness-observed per-op
	// latency histograms (simulated nanoseconds). The baseline queues
	// predate the telemetry layer, so for them only the latency series
	// are populated.
	Queue obs.Snapshot
	// Machine holds machine-level counters: coherence-message kinds, the
	// HTM abort-code breakdown, and hardware CAS outcomes.
	Machine obs.Snapshot
}

// runTelemetry runs a mixed producer/consumer workload for each variant
// with obs recorders attached at both layers and returns the snapshots.
// The thread count is the largest entry of o.ThreadCounts that fits on one
// socket; producers run on socket 0 and consumers on socket 1, as in the
// paper's mixed benchmark (§6.1).
//
// Unlike the figure workloads this measures no latency average — the
// point is the event mix. The queue is not pre-filled, so consumers race
// producers and the DeqEmpty/DeqRetries counters show how often they lose.
func runTelemetry(variants []Variant, o Options) []TelemetrySnapshot {
	o = o.withDefaults()
	var out []TelemetrySnapshot
	for _, v := range variants {
		m := o.newMachine(1)
		cfg := m.Config()
		n := 1
		for _, t := range o.ThreadCounts {
			if t > n && t <= cfg.CoresPerSocket {
				n = t
			}
		}

		machineStats := obs.New()
		m.SetRecorder(machineStats)
		queueStats := obs.New()
		q := buildQueue(m, v, n, 2*n, o.BasketSize, queueStats, core.DefaultOptions())

		toNS := func(cycles uint64) uint64 { return uint64(cfg.NSPerOp(float64(cycles))) }
		for t := 0; t < n; t++ {
			t := t
			m.Go(t, func(p *machine.Proc) {
				p.Delay(p.RandN(200))
				for i := 0; i < o.OpsPerThread; i++ {
					start := p.Now()
					q.Enqueue(p, t, element(t, i))
					queueStats.Observe(obs.EnqLatency, toNS(p.Now()-start))
				}
			})
		}
		for t := 0; t < n; t++ {
			tid := n + t
			m.Go(cfg.CoresPerSocket+t, func(p *machine.Proc) {
				p.Delay(p.RandN(200))
				done := 0
				for done < o.OpsPerThread {
					start := p.Now()
					_, ok := q.Dequeue(p, tid)
					queueStats.Observe(obs.DeqLatency, toNS(p.Now()-start))
					if ok {
						done++
					}
				}
			})
		}
		m.Run()

		out = append(out, TelemetrySnapshot{
			Variant: v, Threads: 2 * n,
			Queue:   queueStats.Snapshot(),
			Machine: machineStats.Snapshot(),
		})
		o.progress("telemetry %s %d threads done\n", v, 2*n)
	}
	return out
}

// WriteTelemetry renders telemetry snapshots as indented per-variant
// sections: queue-level counters and latency first, then the HTM
// abort-code breakdown and coherence traffic from the machine layer.
func WriteTelemetry(w io.Writer, snaps []TelemetrySnapshot) {
	for _, ts := range snaps {
		fmt.Fprintf(w, "%s @ %d threads:\n", ts.Variant, ts.Threads)
		queueCounters := ""
		if ts.Queue.Counter(obs.EnqOps)+ts.Queue.Counter(obs.DeqOps) > 0 {
			queueCounters = ts.Queue.FormatQueue()
		}
		sections := []string{
			queueCounters,
			ts.Queue.FormatLatency(),
			fmt.Sprintf("machine cas: attempts=%d failures=%d (%.1f%% failed)",
				ts.Machine.Counter(obs.CASAttempts), ts.Machine.Counter(obs.CASFailures),
				100*ts.Machine.CASFailureRate()),
			ts.Machine.FormatHTM(),
			ts.Machine.FormatCoherence(),
		}
		for _, sec := range sections {
			if sec == "" {
				continue
			}
			for _, line := range strings.Split(sec, "\n") {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
		fmt.Fprintln(w)
	}
}
