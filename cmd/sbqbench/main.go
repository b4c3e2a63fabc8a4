// Command sbqbench benchmarks the native Go queue implementations on real
// hardware: the companion to the simulated-track figures. Go has no HTM,
// so SBQ runs in its CAS configurations; these numbers characterize the
// adoptable library on contemporary hardware rather than reproducing the
// paper's HTM results (cmd/sbqsim does that).
//
// Queue selection comes from repro/queue/registry, the same table the
// benchmarks and conformance tests use.
//
//	sbqbench -workload enqueue|dequeue|mixed -threads 1,2,4,8 -ops 200000
//	sbqbench -impl SBQ-DCAS -stats        # print telemetry snapshots
//	sbqbench -queue Sharded-FAA -shards 4 # sharded front-end, explicit shard count
//	sbqbench -batch 1,8,64                # sweep EnqueueBatch/DequeueBatch sizes
//	sbqbench -pooled both                 # sweep GC mode and pooled-node mode
//	sbqbench -txcas 0,270ns,5us           # sweep TxCAS speculation windows
//	sbqbench -bench-json out.json         # also write a schema-versioned record
//	sbqbench -diff old.json new.json      # compare two records (report-only)
//	sbqbench -diff -diff-enforce b.json n.json  # exit 1 on regressions
//
// -batch 0 (the default) measures the single-operation path; positive
// sizes drive the batch surface with that k, amortizing the shared-word
// operation over the batch; every registry entry batches natively.
//
// -pooled selects node reclamation: "false" (the default; nodes are
// garbage-collected), "true" (WithNodePool: reclaim-backed freelists,
// zero steady-state allocations — the configuration the alloc gates
// enforce), or "both" to measure the two modes side by side.
//
// -txcas sweeps the software-TxCAS speculation window (how long a
// contending enqueuer watches the link it is about to CAS before issuing
// the CAS; see repro/internal/txcas) across the listed durations on the
// TxCAS-mode entries. 0 selects the engine default (the paper's ~270ns
// §4.1 delay); other entries ignore the flag.
// With -stats, each result cell also records the engine's CAS/soft-abort
// counters in the bench-json output, so baselines document the
// CAS-failure-rate reduction alongside ns/op.
//
// Worker goroutines carry pprof labels (queue=<impl>, role=<producer|
// consumer|prefill>), so a CPU profile taken during a run attributes
// samples per implementation and role.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/benchjson"
	"repro/internal/cliflag"
	"repro/internal/obs"
	"repro/queue/registry"
)

func main() {
	workload := flag.String("workload", "enqueue", "enqueue, dequeue, or mixed")
	threads := cliflag.Threads(flag.CommandLine, "comma-separated thread counts (default 1,2,4,...,NumCPU)")
	ops := flag.Int("ops", 100_000, "operations per thread")
	only := flag.String("impl", "", "comma-separated subset of implementations to run (default all): "+strings.Join(registry.Names(), ", "))
	flag.StringVar(only, "queue", "", "alias for -impl")
	batches := cliflag.Batches(flag.CommandLine, "comma-separated batch sizes; 0 = single-op path (default 0)")
	txWindows := cliflag.Durations(flag.CommandLine, "txcas",
		"comma-separated TxCAS speculation windows swept on the TxCAS entries (e.g. 0,270ns,5us); 0 = engine default; other entries ignore it")
	shards := flag.Int("shards", 0, "shard count for the sharded front-end entries; 0 = entry default (GOMAXPROCS)")
	pooled := flag.String("pooled", "false", `node reclamation mode: "false" (GC), "true" (WithNodePool), or "both" to sweep`)
	stats := flag.Bool("stats", false, "print a telemetry snapshot (CAS failure rates, retries, basket outcomes) per run")
	benchJSON := flag.String("bench-json", "", "write results as schema-versioned JSON to this file")
	diff := flag.Bool("diff", false, "compare two bench-json files: sbqbench -diff old.json new.json")
	diffThreshold := flag.Float64("diff-threshold", benchjson.DefaultThreshold, "relative slowdown flagged as a regression by -diff")
	diffEnforce := flag.Bool("diff-enforce", false, "exit 1 when -diff flags regressions beyond the threshold (report-only otherwise)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: sbqbench -diff old.json new.json")
			os.Exit(2)
		}
		runDiff(flag.Arg(0), flag.Arg(1), *diffThreshold, *diffEnforce)
		return
	}

	var pooledModes []bool
	switch *pooled {
	case "false":
		pooledModes = []bool{false}
	case "true":
		pooledModes = []bool{true}
	case "both":
		pooledModes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "sbqbench: -pooled must be false, true, or both (got %q)\n", *pooled)
		os.Exit(2)
	}

	var onlySet map[string]bool
	if *only != "" {
		onlySet = map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if _, ok := registry.OrderingOf(n); !ok {
				fmt.Fprintf(os.Stderr, "sbqbench: unknown impl %q (have %s)\n", n, strings.Join(registry.Names(), ", "))
				os.Exit(2)
			}
			onlySet[n] = true
		}
	}

	threadCounts := threads.Counts
	if len(threadCounts) == 0 {
		threadCounts = cliflag.PowersOfTwo(runtime.NumCPU())
	}
	sort.Ints(threadCounts)

	batchSizes := batches.Sizes
	if len(batchSizes) == 0 {
		batchSizes = []int{0} // single-op path, comparable with old baselines
	}

	fmt.Printf("workload=%s ops/thread=%d GOMAXPROCS=%d", *workload, *ops, runtime.GOMAXPROCS(0))
	if *shards > 0 {
		fmt.Printf(" shards=%d", *shards)
	}
	fmt.Print("\n\n")
	fmt.Printf("%-20s", "impl")
	for _, n := range threadCounts {
		fmt.Printf(" %9dT", n)
	}
	fmt.Println("   [ns/op]")
	type statRun struct {
		threads int
		snap    obs.Snapshot
	}
	record := benchjson.New()
	record.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	for _, name := range registry.Names() {
		if onlySet != nil && !onlySet[name] {
			continue
		}
		// The window sweep applies only to TxCAS-mode entries; everything
		// else runs the single zero cell (entry default, dimension unset).
		windows := []time.Duration{0}
		if len(txWindows.Durations) > 0 && strings.Contains(name, "TxCAS") {
			windows = txWindows.Durations
		}
		for _, pm := range pooledModes {
			for _, k := range batchSizes {
				for _, w := range windows {
					var snaps []statRun
					label := name
					if k > 0 {
						label = fmt.Sprintf("%s/k=%d", name, k)
					}
					if pm {
						label += "/pooled"
					}
					if w > 0 {
						label += fmt.Sprintf("/w=%v", w)
					}
					fmt.Printf("%-20s", label)
					for _, n := range threadCounts {
						// The interface must stay untyped-nil when stats are off: a
						// typed-nil *obs.Stats would pass the queues' nil checks and
						// crash on the first Inc.
						var rec obs.Recorder
						var snap *obs.Stats
						if *stats {
							snap = obs.New()
							rec = snap
						}
						ns := runOne(name, rec, *workload, n, *ops, k, *shards, pm, w)
						fmt.Printf(" %10.1f", ns)
						res := benchjson.Result{
							Impl: name, Workload: *workload, Threads: n, Batch: k, Shards: *shards,
							Pooled: pm, TxWindowNS: w.Nanoseconds(), Ops: *ops, NSPerOp: ns,
						}
						if snap != nil {
							s := snap.Snapshot()
							res.CASAttempts = s.Counter(obs.CASAttempts)
							res.CASFailures = s.Counter(obs.CASFailures)
							res.TxSoftAborts = s.Counter(obs.TxSoftAborts)
							res.TxSharerHints = s.Counter(obs.TxSharerHints)
							if res.CASAttempts > 0 {
								res.CASFailureRate = float64(res.CASFailures) / float64(res.CASAttempts)
							}
							snaps = append(snaps, statRun{n, s})
						}
						record.Results = append(record.Results, res)
					}
					fmt.Println()
					for _, sr := range snaps {
						fmt.Printf("\n  %s @ %d threads:\n", label, sr.threads)
						for _, line := range strings.Split(strings.TrimRight(sr.snap.FormatQueue(), "\n"), "\n") {
							fmt.Printf("    %s\n", line)
						}
					}
					if len(snaps) > 0 {
						fmt.Println()
					}
				}
			}
		}
	}
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbqbench:", err)
			os.Exit(1)
		}
		if err := record.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, "sbqbench:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote %s (%d results, schema %s)\n", *benchJSON, len(record.Results), benchjson.Schema)
	}
}

// runDiff compares two bench-json files and prints the report. Without
// enforce the exit code is 0 even when regressions are flagged —
// wall-clock benchmarks regress for many reasons besides the code under
// test; with enforce (the CI smoke gate, run with a threshold calibrated
// far above runner noise) flagged regressions exit 1.
func runDiff(oldPath, newPath string, threshold float64, enforce bool) {
	read := func(path string) *benchjson.File {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbqbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		b, err := benchjson.Read(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbqbench:", err)
			os.Exit(1)
		}
		return b
	}
	rep := benchjson.Diff(read(oldPath), read(newPath), threshold)
	fmt.Print(rep.Format())
	if enforce && len(rep.Regressions()) > 0 {
		os.Exit(1)
	}
}

// runOne measures one (impl, workload, threads, batch, pooled, txWindow)
// cell and returns ns per element normalized to one thread. batch 0 drives
// the single-op path; positive batch drives EnqueueBatch/DequeueBatch with
// that k (ops still counts elements, so numbers across batch sizes
// compare per element). pooled selects WithNodePool reclamation. txWindow
// overrides the TxCAS speculation window (0 = entry default; non-TxCAS
// entries ignore it).
func runOne(name string, rec obs.Recorder, workload string, threads, ops, batch, shards int, pooled bool, txWindow time.Duration) float64 {
	producers, consumers := threads, threads
	switch workload {
	case "enqueue":
		consumers = 0
	case "dequeue":
		producers = 0
	case "mixed":
	default:
		fmt.Fprintf(os.Stderr, "sbqbench: unknown workload %q\n", workload)
		os.Exit(2)
	}
	nProd := producers
	if nProd == 0 {
		nProd = threads // prefill threads double as producers
	}
	inst, err := registry.Build(name, registry.Config{
		Producers: nProd, Shards: shards, Recorder: rec, Pooled: pooled,
		TxWindow: txWindow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbqbench:", err)
		os.Exit(2)
	}

	// Prefill for dequeue/mixed so consumers rarely see empty.
	prefill := 0
	switch workload {
	case "dequeue":
		prefill = threads*ops + 1024
	case "mixed":
		prefill = threads * ops / 2
	}
	// Label worker goroutines so CPU profiles split samples by queue and
	// role (go tool pprof -tagfocus queue=SBQ-DCAS, etc.).
	labeled := func(role string, f func()) func() {
		return func() {
			pprof.Do(context.Background(), pprof.Labels("queue", name, "role", role), func(context.Context) { f() })
		}
	}
	if prefill > 0 {
		var wg sync.WaitGroup
		per := prefill / nProd
		for i := 0; i < nProd; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				labeled("prefill", func() {
					q := inst.ProducerView(i)
					for k := 0; k < per; k++ {
						q.Enqueue(uint64(i+1)<<32 | uint64(k+1))
					}
				})()
			}()
		}
		wg.Wait()
	}

	var wg sync.WaitGroup
	start := time.Now()
	total := 0
	if workload != "dequeue" {
		for i := 0; i < producers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				labeled("producer", func() {
					q := inst.ProducerView(i)
					if batch > 0 {
						vs := make([]uint64, batch)
						for k := 0; k < ops; k += len(vs) {
							if rem := ops - k; rem < len(vs) {
								vs = vs[:rem]
							}
							for j := range vs {
								vs[j] = uint64(i+1)<<40 | uint64(k+j+1)
							}
							q.EnqueueBatch(vs)
						}
					} else {
						for k := 0; k < ops; k++ {
							q.Enqueue(uint64(i+1)<<40 | uint64(k+1))
						}
					}
				})()
			}()
		}
		total += producers * ops
	}
	if workload != "enqueue" {
		for i := 0; i < consumers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				labeled("consumer", func() {
					q := inst.ConsumerView(i)
					got := 0
					if batch > 0 {
						dst := make([]uint64, batch)
						for got < ops {
							// Cap the request at the remaining quota: an
							// overshoot would starve another consumer of its
							// share and spin the run forever.
							want := dst
							if rem := ops - got; rem < len(dst) {
								want = dst[:rem]
							}
							if n := q.DequeueBatch(want); n > 0 {
								got += n
							} else {
								runtime.Gosched()
							}
						}
					} else {
						for got < ops {
							if _, ok := q.Dequeue(); ok {
								got++
							} else {
								runtime.Gosched()
							}
						}
					}
				})()
			}()
		}
		total += consumers * ops
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) * float64(threads) / float64(total)
}
