// Command sbqsim regenerates the paper's figures on the simulated machine.
//
// Usage:
//
//	sbqsim -fig 1            TxCAS vs FAA latency (Figure 1)
//	sbqsim -fig 5            enqueue-only latency & throughput (Figure 5)
//	sbqsim -fig 6            dequeue-only latency (Figure 6)
//	sbqsim -fig 7            mixed-workload duration (Figure 7)
//	sbqsim -fig delay        intra-transaction delay sweep (§4.1)
//	sbqsim -fig basket       basket size sweep (§5.3.4)
//	sbqsim -fig fix          tripped-writer fix ablation (§3.4.1/§4.3)
//	sbqsim -fig ext          partitioned-basket dequeue extension (§8 future work)
//	sbqsim -fig obs          telemetry snapshots: CAS failure rates, HTM abort codes
//	sbqsim -fig faults       abort-rate vs throughput per retry/fallback policy
//	sbqsim -fig all          everything
//
// Flags -ops, -reps, -threads and -csv control scale and output format.
// -faults injects HTM faults (spurious aborts, capacity squeeze, HTM
// disablement, cross-socket jitter) into whichever figure runs, e.g.
//
//	sbqsim -fig 5 -faults disable        every variant on its software path
//	sbqsim -fig 7 -faults p=0.1,jitter=40
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflag"
	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 5, 6, 7, delay, basket, fix, ext, obs, faults, all")
	ops := flag.Int("ops", 300, "operations per thread per repetition")
	reps := flag.Int("reps", 3, "repetitions (distinct seeds)")
	threads := cliflag.Threads(flag.CommandLine, "comma-separated thread counts (default 1..44 sweep)")
	faults := cliflag.Faults(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	plot := flag.Bool("plot", true, "render ASCII plots alongside tables")
	verbose := flag.Bool("v", false, "print per-point progress")
	flag.Parse()

	o := harness.Options{
		OpsPerThread: *ops,
		Reps:         *reps,
		ThreadCounts: threads.Counts,
		Faults:       faults.Plan,
	}
	if *verbose {
		o.Progress = os.Stderr
	}

	emit := func(title string, results []harness.Result) {
		if *csv {
			harness.WriteCSV(os.Stdout, results)
			return
		}
		fmt.Printf("== %s ==\n", title)
		harness.WriteTable(os.Stdout, results, "ns")
		if *plot {
			harness.Plot(os.Stdout, results, 16)
		}
		fmt.Println()
	}

	run := func(name string) {
		switch name {
		case "1":
			emit("Figure 1: TxCAS vs FAA latency [ns/op]", harness.Fig1(o))
		case "5":
			res := harness.EnqueueOnly(harness.AllVariants, o)
			emit("Figure 5: enqueue-only latency [ns/op]", res)
			if !*csv {
				fmt.Println("== Figure 5: enqueue throughput [Mops/s] ==")
				harness.WriteTable(os.Stdout, res, "mops")
				if s, ok := harness.Speedup(res, string(harness.SBQHTM), string(harness.WFQueue), 44); ok {
					fmt.Printf("\nSBQ-HTM vs WF-Queue at 44 threads: %.2fx (paper: 1.6x)\n", s)
				}
				fmt.Println()
			}
		case "6":
			emit("Figure 6: dequeue-only latency [ns/op]", harness.DequeueOnly(harness.AllVariants, o))
		case "7":
			res := harness.Mixed(harness.AllVariants, o)
			emit("Figure 7: mixed workload normalized duration [ns/op]", res)
			if !*csv {
				if s, ok := harness.Speedup(res, string(harness.SBQHTM), string(harness.WFQueue), 44); ok {
					fmt.Printf("SBQ-HTM vs WF-Queue at 44 threads: %.2fx (paper: 1.16x)\n\n", s)
				}
			}
		case "delay":
			emit("§4.1 ablation: TxCAS intra-transaction delay [ns/op]",
				harness.DelaySweep([]float64{0, 67, 135, 270, 540}, []int{4, 16, 32, 44}, o))
		case "basket":
			emit("§5.3.4 ablation: SBQ-HTM enqueue latency vs basket size (8 threads)",
				harness.BasketSweep([]int{8, 16, 24, 44, 64, 88}, 8, o))
		case "ext":
			emit("§8 future-work extension: partitioned-basket dequeue latency [ns/op]",
				harness.DequeueOnly([]harness.Variant{harness.SBQHTM, harness.SBQHTMPart, harness.WFQueue}, o))
		case "obs":
			variants := append([]harness.Variant{}, harness.AllVariants...)
			variants = append(variants, harness.SBQHTMPart)
			fmt.Println("== Telemetry: per-queue CAS failure rates, HTM abort codes, coherence traffic ==")
			harness.WriteTelemetry(os.Stdout, harness.Telemetry(variants, o))
		case "fix":
			fmt.Println("== §3.4.1/§4.3 ablation: cross-socket TxCAS, tripped-writer fix ==")
			fmt.Printf("%-20s %10s %10s %10s %10s %10s\n", "config", "ns/op", "tripped", "stalls", "aborts", "commits")
			for _, r := range harness.FixAblation(o) {
				fmt.Printf("%-20s %10.0f %10d %10d %10d %10d\n", r.Label, r.NSPerOp, r.TrippedWriters, r.FixStalls, r.Aborts, r.Commits)
			}
			fmt.Println()
		case "faults":
			fmt.Println("== Fault sweep: SBQ-HTM enqueue under injected aborts, per retry/fallback policy ==")
			harness.WriteFaultSweep(os.Stdout, harness.FaultSweep(8, []float64{0, 0.05, 0.2, 0.5}, o))
			fmt.Println()
		default:
			fmt.Fprintf(os.Stderr, "sbqsim: unknown figure %q\n", name)
			os.Exit(2)
		}
	}

	if *fig == "all" {
		for _, f := range []string{"1", "5", "6", "7", "delay", "basket", "fix", "ext", "obs", "faults"} {
			run(f)
		}
		return
	}
	run(*fig)
}
