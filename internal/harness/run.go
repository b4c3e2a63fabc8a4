package harness

import "repro/internal/trace"

// This file is the harness's single entry point. Experiments are typed
// Workload values executed through Run, so call sites compose the what
// (the workload) with the how much (Options) uniformly:
//
//	out := harness.Run(harness.EnqueueOnly{Variants: harness.AllVariants},
//		harness.Options{OpsPerThread: 200})
//	harness.WriteTable(os.Stdout, out.Results, "ns")

// Workload is one experiment the harness can run: a figure or ablation of
// the paper, a telemetry/trace capture, or the fault sweep. The set is
// closed (run is unexported); each workload documents which Output fields
// it populates.
type Workload interface {
	// Name returns the workload's short CLI name (cmd/sbqsim's -fig).
	Name() string

	run(o Options) Output
}

// Output is the union result of Run. Every workload fills Results or one
// of the specialized fields; unused fields are zero.
type Output struct {
	// Results holds measured points for the figure workloads (Fig1,
	// EnqueueOnly, DequeueOnly, Mixed, DelaySweep, BasketSweep).
	Results []Result
	// Fix holds the tripped-writer ablation's rows (FixAblation).
	Fix []FixResult
	// Telemetry holds per-variant counter snapshots (Telemetry).
	Telemetry []TelemetrySnapshot
	// Trace holds the drained flight recorder (TraceQueue, TraceTxCAS).
	Trace *trace.Trace
	// Faults holds the abort-rate vs throughput curves (FaultSweep).
	Faults []FaultResult
}

// Run executes one workload under the given options. It is the only entry
// point; everything else in this package either builds inputs for it or
// formats its Output.
func Run(w Workload, o Options) Output { return w.run(o) }

// Fig1 measures per-operation latency of a contended FAA and a contended
// TxCAS as concurrency grows (paper Figure 1). Populates Output.Results.
type Fig1 struct{}

// Name implements Workload.
func (Fig1) Name() string { return "fig1" }

func (Fig1) run(o Options) Output { return Output{Results: runFig1(o)} }

// EnqueueOnly measures enqueue latency and aggregate throughput while
// producers fill an initially empty queue (paper Figure 5). Populates
// Output.Results.
type EnqueueOnly struct {
	Variants []Variant
}

// Name implements Workload.
func (EnqueueOnly) Name() string { return "enq" }

func (w EnqueueOnly) run(o Options) Output { return Output{Results: runEnqueueOnly(w.Variants, o)} }

// DequeueOnly measures dequeue latency on a queue pre-filled by concurrent
// producers (paper Figure 6). Populates Output.Results.
type DequeueOnly struct {
	Variants []Variant
}

// Name implements Workload.
func (DequeueOnly) Name() string { return "deq" }

func (w DequeueOnly) run(o Options) Output { return Output{Results: runDequeueOnly(w.Variants, o)} }

// Mixed measures the normalized duration of the producer/consumer benchmark
// of paper Figure 7 (producers on socket 0, consumers on socket 1).
// Populates Output.Results.
type Mixed struct {
	Variants []Variant
}

// Name implements Workload.
func (Mixed) Name() string { return "mixed" }

func (w Mixed) run(o Options) Output { return Output{Results: runMixed(w.Variants, o)} }

// DelaySweep measures TxCAS latency across intra-transaction delays (paper
// §4.1's tuning). Populates Output.Results.
type DelaySweep struct {
	// DelaysNS are the intra-transaction delays to sweep, in nanoseconds.
	DelaysNS []float64
	// ThreadCounts overrides Options.ThreadCounts for the sweep.
	ThreadCounts []int
}

// Name implements Workload.
func (DelaySweep) Name() string { return "delay" }

func (w DelaySweep) run(o Options) Output {
	return Output{Results: runDelaySweep(w.DelaysNS, w.ThreadCounts, o)}
}

// BasketSweep measures SBQ-HTM enqueue latency across basket sizes at a
// fixed thread count (§5.3.4). Populates Output.Results.
type BasketSweep struct {
	BasketSizes []int
	Threads     int
}

// Name implements Workload.
func (BasketSweep) Name() string { return "basket" }

func (w BasketSweep) run(o Options) Output {
	return Output{Results: runBasketSweep(w.BasketSizes, w.Threads, o)}
}

// FixAblation measures cross-socket TxCAS with and without the §3.4.1
// tripped-writer fix. Populates Output.Fix.
type FixAblation struct{}

// Name implements Workload.
func (FixAblation) Name() string { return "fix" }

func (FixAblation) run(o Options) Output { return Output{Fix: runFixAblation(o)} }

// Telemetry runs the mixed workload per variant with obs recorders at both
// layers (queue and machine). Populates Output.Telemetry.
type Telemetry struct {
	Variants []Variant
}

// Name implements Workload.
func (Telemetry) Name() string { return "telemetry" }

func (w Telemetry) run(o Options) Output { return Output{Telemetry: runTelemetry(w.Variants, o)} }

// TraceQueue runs one variant under the mixed workload with a flight
// recorder attached at both layers. Populates Output.Trace.
type TraceQueue struct {
	Variant Variant
}

// Name implements Workload.
func (TraceQueue) Name() string { return "trace" }

func (w TraceQueue) run(o Options) Output { return Output{Trace: runTrace(w.Variant, o)} }

// TraceTxCAS records the raw-TxCAS cross-socket configuration of the fix
// ablation (§3.4.1), dense in tripped-writer aborts. Populates
// Output.Trace.
type TraceTxCAS struct{}

// Name implements Workload.
func (TraceTxCAS) Name() string { return "trace-txcas" }

func (TraceTxCAS) run(o Options) Output { return Output{Trace: runTraceTxCAS(o)} }
