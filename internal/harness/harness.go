// Package harness runs the paper's evaluation experiments (§6) on the
// simulated machine and formats their results. Experiments are named by
// typed Workload values executed through the single entry point Run (see
// run.go); each regenerates one figure or ablation of the paper. cmd/sbqsim
// and the repository's bench_test.go are thin wrappers around it.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simqueue"
	"repro/internal/stats"
)

// Result is one measured point: a queue (or primitive) at a thread count.
type Result struct {
	Series  string  // queue or primitive name
	Threads int     // concurrency level
	NSPerOp float64 // mean latency per operation
	Mops    float64 // aggregate throughput, millions of ops per second
	StdNS   float64 // stddev of NSPerOp across repetitions
}

// Options controls experiment scale. Zero values select defaults sized for
// interactive runs; the paper's 4e6 ops/thread is approximated in shape by
// far fewer simulated operations.
type Options struct {
	OpsPerThread int   // operations per thread per repetition (default 300)
	Reps         int   // repetitions with distinct seeds (default 3; paper uses 5)
	ThreadCounts []int // sweep points (default 1..44, paper's single-socket range)
	BasketSize   int   // SBQ basket capacity (default 44, as in the paper)
	Progress     io.Writer

	// Faults configures the fault injector of every machine the workload
	// builds (see machine.FaultPlan): spurious aborts, capacity squeeze,
	// HTM disablement, cross-socket jitter. The zero value injects nothing.
	Faults machine.FaultPlan
}

func (o Options) withDefaults() Options {
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 300
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if len(o.ThreadCounts) == 0 {
		o.ThreadCounts = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44}
	}
	if o.BasketSize == 0 {
		o.BasketSize = 44
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// Variant names a queue implementation under test.
type Variant string

// The queue variants of the paper's evaluation (§6.1).
const (
	SBQHTM     Variant = "SBQ-HTM"
	SBQCAS     Variant = "SBQ-CAS"
	BQOriginal Variant = "BQ-Original"
	WFQueue    Variant = "WF-Queue" // FAA-based stand-in, see DESIGN.md
	CCQueue    Variant = "CC-Queue"
	MSQueue    Variant = "MS-Queue" // extra baseline, not in the paper's figures
	// SBQHTMPart is SBQ-HTM with partitioned basket extraction — this
	// repository's implementation of the paper's §8 future work
	// ("designing a basket with scalable dequeue operations").
	SBQHTMPart Variant = "SBQ-HTM-PB"
	// LCRQV is the LCRQ of Morrison & Afek, the related-work predecessor
	// of WF-Queue; an optional extra baseline, not in the paper's figures.
	LCRQV Variant = "LCRQ"
)

// AllVariants is the figure 5-7 lineup.
var AllVariants = []Variant{BQOriginal, CCQueue, SBQCAS, SBQHTM, WFQueue}

// buildQueue constructs the named variant for a machine with the given
// producer and total thread counts. rec receives queue-level telemetry
// where the variant supports it (the SBQ variants; the baseline queues
// predate the telemetry layer and report only machine-level counters).
// copt tunes the TxCAS of the SBQ-HTM variants.
func buildQueue(m *machine.Machine, v Variant, producers, threads, basketSize int, rec *obs.Stats, copt core.Options) simqueue.Queue {
	if producers < 1 {
		producers = 1
	}
	if basketSize < producers {
		basketSize = producers
	}
	switch v {
	case SBQHTM:
		return simqueue.NewSBQ(m, simqueue.SBQOptions{
			BasketSize: basketSize, Enqueuers: producers, Threads: threads,
			Append: core.New(copt).Do, Name: string(SBQHTM), Rec: rec,
		})
	case SBQHTMPart:
		return simqueue.NewSBQ(m, simqueue.SBQOptions{
			BasketSize: basketSize, Enqueuers: producers, Threads: threads,
			Append: core.New(copt).Do, Name: string(SBQHTMPart), Partitions: 2, Rec: rec,
		})
	case SBQCAS:
		return simqueue.NewSBQ(m, simqueue.SBQOptions{
			BasketSize: basketSize, Enqueuers: producers, Threads: threads,
			Append: simqueue.DelayedCAS(core.DefaultDelay), Name: string(SBQCAS), Rec: rec,
		})
	case BQOriginal:
		return simqueue.NewBQ(m, 0)
	case WFQueue:
		return simqueue.NewFAAQ(m, simqueue.FAAQOptions{Threads: threads})
	case CCQueue:
		return simqueue.NewCCQ(m, threads, 0)
	case MSQueue:
		return simqueue.NewMSQ(m, 0)
	case LCRQV:
		return simqueue.NewLCRQ(m, simqueue.LCRQOptions{})
	}
	panic("harness: unknown variant " + string(v))
}

func (o Options) newMachine(seed uint64) *machine.Machine {
	cfg := machine.Default()
	cfg.Seed = seed
	cfg.Faults = o.Faults
	return machine.New(cfg)
}

// element returns the unique value thread tid enqueues as its i-th element.
func element(tid, i int) uint64 { return uint64(tid+1)<<32 | uint64(i+1) }

// ---------------------------------------------------------------------------
// Figure 1: TxCAS vs FAA latency.

// runFig1 measures per-operation latency of a contended FAA and a contended
// TxCAS as concurrency grows (paper Figure 1).
func runFig1(o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, series := range []string{"FAA", "TxCAS"} {
		for _, n := range o.ThreadCounts {
			var ns []float64
			for rep := 0; rep < o.Reps; rep++ {
				m := o.newMachine(uint64(rep) + 1)
				if n > m.Config().CoresPerSocket {
					continue
				}
				a := m.AllocLine(8, 0)
				var cycles uint64
				for t := 0; t < n; t++ {
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						txc := core.New(core.DefaultOptions())
						start := p.Now()
						for i := 0; i < o.OpsPerThread; i++ {
							if series == "FAA" {
								p.FAA(a, 1)
							} else {
								old := p.Read(a)
								txc.Do(p, a, old, old+1)
							}
						}
						cycles += p.Now() - start
					})
				}
				m.Run()
				perOp := float64(cycles) / float64(n*o.OpsPerThread)
				ns = append(ns, m.Config().NSPerOp(perOp))
			}
			if len(ns) == 0 {
				continue
			}
			s := stats.Summarize(ns)
			out = append(out, Result{Series: series, Threads: n, NSPerOp: s.Mean, StdNS: s.Stddev,
				Mops: 1e3 * float64(n) / s.Mean})
			o.progress("fig1 %s %d threads: %.0f ns/op\n", series, n, s.Mean)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 5-7: queue workloads.

// runEnqueueOnly measures enqueue latency and aggregate throughput while
// producers fill an initially empty queue (paper Figure 5).
func runEnqueueOnly(variants []Variant, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, v := range variants {
		for _, n := range o.ThreadCounts {
			var ns []float64
			for rep := 0; rep < o.Reps; rep++ {
				m := o.newMachine(uint64(rep) + 1)
				if n > m.Config().CoresPerSocket {
					continue
				}
				q := buildQueue(m, v, n, n, o.BasketSize, nil, core.DefaultOptions())
				var cycles uint64
				for t := 0; t < n; t++ {
					t := t
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						start := p.Now()
						for i := 0; i < o.OpsPerThread; i++ {
							q.Enqueue(p, t, element(t, i))
						}
						cycles += p.Now() - start
					})
				}
				m.Run()
				perOp := float64(cycles) / float64(n*o.OpsPerThread)
				ns = append(ns, m.Config().NSPerOp(perOp))
			}
			if len(ns) == 0 {
				continue
			}
			s := stats.Summarize(ns)
			out = append(out, Result{Series: string(v), Threads: n, NSPerOp: s.Mean, StdNS: s.Stddev,
				Mops: 1e3 * float64(n) / s.Mean})
			o.progress("fig5 %s %d threads: %.0f ns/op\n", v, n, s.Mean)
		}
	}
	return out
}

// runDequeueOnly measures dequeue latency on a queue pre-filled by
// concurrent producers (paper Figure 6). Consumers are the measured
// threads; the queue never goes empty.
func runDequeueOnly(variants []Variant, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, v := range variants {
		for _, n := range o.ThreadCounts {
			var ns []float64
			for rep := 0; rep < o.Reps; rep++ {
				m := o.newMachine(uint64(rep) + 1)
				if n > m.Config().CoresPerSocket {
					continue
				}
				// Pre-fill with n producer threads (ids 0..n-1), per §6.1.
				fill := o.OpsPerThread + o.OpsPerThread/4 + 8
				q := buildQueue(m, v, n, 2*n, o.BasketSize, nil, core.DefaultOptions())
				for t := 0; t < n; t++ {
					t := t
					m.Go(t, func(p *machine.Proc) {
						for i := 0; i < fill; i++ {
							q.Enqueue(p, t, element(t, i))
						}
					})
				}
				m.Run()
				var cycles uint64
				for t := 0; t < n; t++ {
					tid := n + t
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						start := p.Now()
						for i := 0; i < o.OpsPerThread; i++ {
							q.Dequeue(p, tid)
						}
						cycles += p.Now() - start
					})
				}
				m.Run()
				perOp := float64(cycles) / float64(n*o.OpsPerThread)
				ns = append(ns, m.Config().NSPerOp(perOp))
			}
			if len(ns) == 0 {
				continue
			}
			s := stats.Summarize(ns)
			out = append(out, Result{Series: string(v), Threads: n, NSPerOp: s.Mean, StdNS: s.Stddev,
				Mops: 1e3 * float64(n) / s.Mean})
			o.progress("fig6 %s %d threads: %.0f ns/op\n", v, n, s.Mean)
		}
	}
	return out
}

// runMixed measures the normalized duration of a benchmark where producers
// (socket 0) enqueue and consumers (socket 1) dequeue the same number of
// elements from a half-full queue (paper Figure 7). Threads here counts
// both types together, matching the figure's x-axis.
func runMixed(variants []Variant, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, v := range variants {
		for _, total := range o.ThreadCounts {
			n := total / 2
			if n == 0 {
				continue
			}
			var ns []float64
			for rep := 0; rep < o.Reps; rep++ {
				m := o.newMachine(uint64(rep) + 1)
				if n > m.Config().CoresPerSocket {
					continue
				}
				cps := m.Config().CoresPerSocket
				q := buildQueue(m, v, n, 2*n, o.BasketSize, nil, core.DefaultOptions())
				prefill := o.OpsPerThread / 2
				for t := 0; t < n; t++ {
					t := t
					m.Go(t, func(p *machine.Proc) {
						for i := 0; i < prefill; i++ {
							q.Enqueue(p, t, element(t, i))
						}
					})
				}
				m.Run()
				start := m.Now()
				totalOps := 0
				for t := 0; t < n; t++ {
					t := t
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						for i := 0; i < o.OpsPerThread; i++ {
							q.Enqueue(p, t, element(t, prefill+i))
						}
					})
				}
				for t := 0; t < n; t++ {
					tid := n + t
					m.Go(cps+t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						done := 0
						for done < o.OpsPerThread {
							if _, ok := q.Dequeue(p, tid); ok {
								done++
							} else {
								p.Delay(100)
							}
						}
					})
				}
				m.Run()
				totalOps = 2 * n * o.OpsPerThread
				perOp := float64(m.Now()-start) * float64(2*n) / float64(totalOps)
				ns = append(ns, m.Config().NSPerOp(perOp))
			}
			if len(ns) == 0 {
				continue
			}
			s := stats.Summarize(ns)
			out = append(out, Result{Series: string(v), Threads: 2 * n, NSPerOp: s.Mean, StdNS: s.Stddev,
				Mops: 1e3 * float64(2*n) / s.Mean})
			o.progress("fig7 %s %d threads: %.0f ns/op\n", v, 2*n, s.Mean)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Ablations.

// runDelaySweep measures TxCAS latency across intra-transaction delays
// (paper §4.1's tuning; the paper settles on ~270 ns).
func runDelaySweep(delaysNS []float64, threadCounts []int, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, dns := range delaysNS {
		for _, n := range threadCounts {
			var ns []float64
			for rep := 0; rep < o.Reps; rep++ {
				m := o.newMachine(uint64(rep) + 1)
				if n > m.Config().CoresPerSocket {
					continue
				}
				delay := uint64(dns * m.Config().CyclesPerNS)
				a := m.AllocLine(8, 0)
				var cycles uint64
				for t := 0; t < n; t++ {
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						opt := core.DefaultOptions()
						opt.Delay = delay
						txc := core.New(opt)
						start := p.Now()
						for i := 0; i < o.OpsPerThread; i++ {
							old := p.Read(a)
							txc.Do(p, a, old, old+1)
						}
						cycles += p.Now() - start
					})
				}
				m.Run()
				perOp := float64(cycles) / float64(n*o.OpsPerThread)
				ns = append(ns, m.Config().NSPerOp(perOp))
			}
			if len(ns) == 0 {
				continue
			}
			s := stats.Summarize(ns)
			out = append(out, Result{Series: fmt.Sprintf("delay=%.0fns", dns), Threads: n,
				NSPerOp: s.Mean, StdNS: s.Stddev, Mops: 1e3 * float64(n) / s.Mean})
			o.progress("delay %.0fns %d threads: %.0f ns/op\n", dns, n, s.Mean)
		}
	}
	return out
}

// runBasketSweep measures SBQ-HTM enqueue latency across basket sizes at a
// fixed thread count (the O(B/T) initialization amortization of §5.3.4).
func runBasketSweep(basketSizes []int, threads int, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, b := range basketSizes {
		o2 := o
		o2.BasketSize = b
		o2.ThreadCounts = []int{threads}
		res := runEnqueueOnly([]Variant{SBQHTM}, o2)
		for _, r := range res {
			r.Series = fmt.Sprintf("B=%d", b)
			out = append(out, r)
			o.progress("basket B=%d: %.0f ns/op\n", b, r.NSPerOp)
		}
	}
	return out
}

// FixResult reports the tripped-writer ablation (§3.4.1): TxCAS behavior
// with requesters on one socket and readers on the other, with and without
// the proposed microarchitectural fix.
type FixResult struct {
	Label          string
	Fix            bool
	PostAbortDelay uint64
	NSPerOp        float64
	TrippedWriters uint64
	FixStalls      uint64
	Aborts         uint64
	Commits        uint64
}

// runFixAblation measures cross-socket TxCAS with and without the §3.4.1
// microarchitectural fix. TxCASers run on both sockets, which is exactly
// the configuration §4.3 rules out on current hardware: the post-abort
// check reads from the remote socket land inside a committing writer's
// (long, cross-socket) xend drain window and trip it. The proposed fix
// stalls those reads until the transaction commits.
func runFixAblation(o Options) []FixResult {
	o = o.withDefaults()
	// The three regimes of §4.3's discussion. Intra-socket, a short
	// post-abort delay keeps check reads out of a committing writer's
	// drain window. Cross-socket that window is several times longer, so:
	// without the delay, check reads trip writers constantly; the
	// hardware fix stalls those reads instead; alternatively the delay
	// can be stretched to cross-socket latency, trading tripping for a
	// much slower TxCAS.
	configs := []struct {
		label string
		fix   bool
		pad   uint64
	}{
		{"no-delay", false, 0},
		{"no-delay+fix", true, 0},
		{"cross-socket-delay", false, 500},
	}
	var out []FixResult
	for _, cf := range configs {
		cfg := machine.Default()
		cfg.TrippedWriterFix = cf.fix
		cfg.Seed = 1
		cfg.Faults = o.Faults
		m := machine.New(cfg)
		a := m.AllocLine(8, 0)
		perSocket := 6
		var cycles uint64
		opt := core.DefaultOptions()
		opt.PostAbortDelay = cf.pad
		for s := 0; s < 2; s++ {
			for t := 0; t < perSocket; t++ {
				m.Go(s*cfg.CoresPerSocket+t, func(p *machine.Proc) {
					p.Delay(p.RandN(400))
					txc := core.New(opt)
					start := p.Now()
					for i := 0; i < o.OpsPerThread; i++ {
						old := p.Read(a)
						txc.Do(p, a, old, old+1)
					}
					cycles += p.Now() - start
				})
			}
		}
		m.Run()
		perOp := float64(cycles) / float64(2*perSocket*o.OpsPerThread)
		out = append(out, FixResult{
			Label:          cf.label,
			Fix:            cf.fix,
			PostAbortDelay: cf.pad,
			NSPerOp:        cfg.NSPerOp(perOp),
			TrippedWriters: m.Stats.TrippedWriters,
			FixStalls:      m.Stats.FixStalls,
			Aborts:         m.Stats.TxAborts,
			Commits:        m.Stats.TxCommits,
		})
		o.progress("%s: %.0f ns/op, tripped=%d stalls=%d aborts=%d commits=%d\n",
			cf.label, cfg.NSPerOp(perOp), m.Stats.TrippedWriters, m.Stats.FixStalls, m.Stats.TxAborts, m.Stats.TxCommits)
	}
	return out
}

// ---------------------------------------------------------------------------
// Output formatting.

// WriteTable renders results as an aligned table: one row per thread count,
// one column per series.
func WriteTable(w io.Writer, results []Result, metric string) {
	series := seriesOf(results)
	threads := threadsOf(results)
	byKey := map[string]Result{}
	for _, r := range results {
		byKey[key(r.Series, r.Threads)] = r
	}
	fmt.Fprintf(w, "%-8s", "threads")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s)
	}
	fmt.Fprintln(w)
	for _, t := range threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, s := range series {
			r, ok := byKey[key(s, t)]
			if !ok {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			switch metric {
			case "mops":
				fmt.Fprintf(w, " %14.2f", r.Mops)
			default:
				fmt.Fprintf(w, " %14.1f", r.NSPerOp)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders results as series,threads,ns_per_op,mops,std_ns rows.
func WriteCSV(w io.Writer, results []Result) {
	fmt.Fprintln(w, "series,threads,ns_per_op,mops,std_ns")
	for _, r := range results {
		fmt.Fprintf(w, "%s,%d,%.2f,%.4f,%.2f\n", r.Series, r.Threads, r.NSPerOp, r.Mops, r.StdNS)
	}
}

func key(s string, t int) string { return fmt.Sprintf("%s|%d", s, t) }

// Speedup returns how many times faster (in ns/op) series a is than
// series b at the given thread count — the paper's headline metric (e.g.
// SBQ-HTM vs WF-Queue at 44 threads). ok is false if either point is
// missing.
func Speedup(results []Result, a, b string, threads int) (float64, bool) {
	var ra, rb *Result
	for i := range results {
		r := &results[i]
		if r.Threads != threads {
			continue
		}
		switch r.Series {
		case a:
			ra = r
		case b:
			rb = r
		}
	}
	if ra == nil || rb == nil || ra.NSPerOp == 0 {
		return 0, false
	}
	return rb.NSPerOp / ra.NSPerOp, true
}

func seriesOf(results []Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range results {
		if !seen[r.Series] {
			seen[r.Series] = true
			out = append(out, r.Series)
		}
	}
	return out
}

func threadsOf(results []Result) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range results {
		if !seen[r.Threads] {
			seen[r.Threads] = true
			out = append(out, r.Threads)
		}
	}
	sort.Ints(out)
	return out
}

// Plot renders a crude ASCII line chart of NSPerOp against threads, one
// letter per series, for terminal-friendly figure reproduction.
func Plot(w io.Writer, results []Result, height int) {
	series := seriesOf(results)
	threads := threadsOf(results)
	if len(series) == 0 || len(threads) == 0 {
		return
	}
	if height <= 0 {
		height = 16
	}
	byKey := map[string]Result{}
	maxY := 0.0
	for _, r := range results {
		byKey[key(r.Series, r.Threads)] = r
		if r.NSPerOp > maxY {
			maxY = r.NSPerOp
		}
	}
	width := len(threads)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "abcdefghij"
	for si, s := range series {
		for xi, t := range threads {
			r, ok := byKey[key(s, t)]
			if !ok {
				continue
			}
			y := int((r.NSPerOp / maxY) * float64(height-1))
			row := height - 1 - y
			c := marks[si%len(marks)]
			if grid[row][xi] != ' ' {
				c = '*'
			}
			grid[row][xi] = c
		}
	}
	fmt.Fprintf(w, "ns/op (max %.0f)\n", maxY)
	for _, row := range grid {
		fmt.Fprintf(w, "|%s\n", row)
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, " threads %d..%d; ", threads[0], threads[len(threads)-1])
	for si, s := range series {
		fmt.Fprintf(w, "%c=%s ", marks[si%len(marks)], s)
	}
	fmt.Fprintln(w)
}
