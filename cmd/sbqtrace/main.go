// Command sbqtrace records and analyzes flight-recorder traces of the
// simulated track. A recorded trace is Chrome trace_event JSON — load it
// in chrome://tracing or https://ui.perfetto.dev to see per-core and
// per-thread swimlanes — and the analyzer rebuilds the paper's temporal
// figures from the same file:
//
//	tripped-writer serialization chains (§3) — how many writers each
//	    remote read serializes in a row;
//	abort-cascade trees (§3.3) — which abort (or GetM) triggered which;
//	per-op latency split by intra- vs cross-socket conflicts (§4.3);
//	basket lifetime and occupancy (§5.3).
//
// Usage:
//
//	sbqtrace -record -out trace.json                   record (mixed SBQ-HTM workload)
//	sbqtrace -record -workload txcas -out trace.json   record the §3.4.1 cross-socket
//	                                                   TxCAS regime (dense in tripped
//	                                                   writers)
//	sbqtrace -record -faults p=0.2,jitter=40 ...       record under injected HTM
//	                                                   faults (see -faults spec)
//	sbqtrace trace.json                                analyze a recorded trace
//	sbqtrace -record trace-and-analyze.json -analyze   record, write, and analyze
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/cliflag"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/trace"
)

func main() {
	record := flag.Bool("record", false, "record a new trace from the simulated track")
	analyze := flag.Bool("analyze", false, "with -record: also analyze the recorded trace")
	out := flag.String("out", "", "with -record: write Chrome trace_event JSON here (default stdout)")
	workload := flag.String("workload", "mixed", "with -record: mixed (producers/consumers across sockets) or txcas (§3.4.1 raw-TxCAS regime)")
	variant := flag.String("variant", string(harness.SBQHTM),
		fmt.Sprintf("with -record -workload mixed: queue variant, one of %v", harness.Buildable))
	threads := flag.Int("threads", 8, "with -record: threads per side (producers=consumers, or TxCASers per socket)")
	ops := flag.Int("ops", 300, "with -record: operations per thread")
	faults := cliflag.Faults(flag.CommandLine)
	chainWindow := flag.Uint64("chain-window", 0, "chain gap threshold in trace time units (0 = default)")
	cascadeWindow := flag.Uint64("cascade-window", 0, "cascade attribution window in trace time units (0 = default)")
	jobsOut := flag.String("jobs-out", "", "write a job-lane Chrome trace (one swimlane per job) here")
	flag.Parse()

	if *record {
		doRecord(*workload, *variant, *threads, *ops, faults.Plan, *out, *analyze, *chainWindow, *cascadeWindow)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sbqtrace [-flags] trace.json  |  sbqtrace -record [-flags]")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadChrome(f)
	if err != nil {
		fatal(err)
	}
	report(tr, *chainWindow, *cascadeWindow)
	if *jobsOut != "" {
		writeJobs(tr, *jobsOut)
	}
}

func writeJobs(tr *trace.Trace, path string) {
	js := trace.AnalyzeJobs(tr)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := js.WriteJobsChrome(f, tr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d job lanes (load in chrome://tracing or ui.perfetto.dev)\n",
		path, js.Jobs)
}

func doRecord(workload, variant string, threads, ops int, faults machine.FaultPlan, out string, analyze bool, cw, caw uint64) {
	o := harness.Options{
		OpsPerThread: ops,
		ThreadCounts: []int{threads},
		Progress:     os.Stderr,
		Faults:       faults,
	}
	var tr *trace.Trace
	switch workload {
	case "mixed":
		if !slices.Contains(harness.Buildable, harness.Variant(variant)) {
			fmt.Fprintf(os.Stderr, "sbqtrace: unknown variant %q (want one of %v)\n", variant, harness.Buildable)
			os.Exit(2)
		}
		tr = harness.TraceQueue(harness.Variant(variant), o)
	case "txcas":
		tr = harness.TraceTxCAS(o)
	default:
		fmt.Fprintf(os.Stderr, "sbqtrace: unknown workload %q (want mixed or txcas)\n", workload)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "recorded %d events (%d dropped)\n", len(tr.Events), tr.Dropped)

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.WriteChrome(w); err != nil {
		fatal(err)
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", out)
	}
	if analyze {
		report(tr, cw, caw)
	}
}

func report(tr *trace.Trace, chainWindow, cascadeWindow uint64) {
	a := trace.Analyze(tr, trace.AnalyzeOptions{
		ChainWindow:   chainWindow,
		CascadeWindow: cascadeWindow,
	})
	fmt.Printf("trace: %d events, epoch %d, %d dropped, clock %s\n", len(tr.Events), tr.Epoch, tr.Dropped, tr.Clock)
	if v := tr.Meta["variant"]; v != "" {
		fmt.Printf("variant: %s  workload: %s\n", v, tr.Meta["workload"])
	}
	if w := trace.DroppedWarning(tr.Dropped); w != "" {
		// Also on stderr so a redirected report still screams in the log.
		fmt.Fprintln(os.Stderr, w)
	}
	fmt.Println()
	fmt.Print(a.Format())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbqtrace:", err)
	os.Exit(1)
}
