// Package harness runs the paper's evaluation experiments (§6) on the
// simulated machine and formats their results. Each experiment is one
// function that regenerates a figure or ablation of the paper and returns
// its own result type:
//
//	res := harness.EnqueueOnly(harness.AllVariants, harness.Options{OpsPerThread: 200})
//	harness.WriteTable(os.Stdout, res, "ns")
//
// cmd/sbqsim, cmd/sbqtrace and the repository's bench_test.go are thin
// wrappers around them.
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
	Progress     io.Writer

	// Faults configures the fault injector of every machine the experiment
	// builds (see machine.FaultPlan): spurious aborts, capacity squeeze,
	// HTM disablement, cross-socket jitter. The zero value injects nothing.
	Faults machine.FaultPlan
}

func (o Options) withDefaults() Options {
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 300
	}
	if o.Reps < 1 {
		o.Reps = 3
	}
	if len(o.ThreadCounts) == 0 {
		o.ThreadCounts = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44}
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// paperBasket is the SBQ basket capacity of every experiment but the basket
// sweep: 44, as in the paper.
const paperBasket = 44

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

// Buildable lists every variant the harness builds: the figure 5-7 lineup,
// the §8 extension, and the two baselines no figure runs.
var Buildable = []Variant{BQOriginal, CCQueue, SBQCAS, SBQHTM, WFQueue, SBQHTMPart, MSQueue, LCRQV}

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
// Measurement helpers shared by the experiments.

// point appends to out one measured point of a figure: o.Reps repetitions
// of run, each on a fresh machine seeded with its repetition number from
// 1, where run drives the machine and returns simulated nanoseconds per
// operation. threads is the point's x-axis value and scales its Mops. A
// point whose perSocket threads do not fit one socket is skipped.
func (o Options) point(out []Result, fig, series string, threads, perSocket int, run func(m *machine.Machine) float64) []Result {
	if perSocket > machine.Default().CoresPerSocket {
		return out
	}
	var ns []float64
	for rep := 0; rep < o.Reps; rep++ {
		ns = append(ns, run(o.newMachine(uint64(rep)+1)))
	}
	s := stats.Summarize(ns)
	o.progress("%s %s %d threads: %.0f ns/op\n", fig, series, threads, s.Mean)
	return append(out, Result{Series: series, Threads: threads, NSPerOp: s.Mean, StdNS: s.Stddev,
		Mops: 1e3 * float64(threads) / s.Mean})
}

// goTxCAS starts a thread on core c that waits a random start offset of
// under stagger cycles, then increments the counter word a by TxCAS (tuned
// by opt) o.OpsPerThread times, and adds the cycles the increments took to
// *cycles.
func (o Options) goTxCAS(m *machine.Machine, c int, a machine.Addr, stagger uint64, opt core.Options, cycles *uint64) {
	m.Go(c, func(p *machine.Proc) {
		p.Delay(p.RandN(stagger))
		txc := core.New(opt)
		start := p.Now()
		for i := 0; i < o.OpsPerThread; i++ {
			old := p.Read(a)
			txc.Do(p, a, old, old+1)
		}
		*cycles += p.Now() - start
	})
}

// widest returns the largest of o.ThreadCounts that fits one socket, or 1
// if none does.
func (o Options) widest() int {
	n := 1
	for _, t := range o.ThreadCounts {
		if t > n && t <= machine.Default().CoresPerSocket {
			n = t
		}
	}
	return n
}

// enqueue runs the producers of an enqueue-only run on m: a variant v
// queue with baskets of b, and n producers, thread t on core t, each
// enqueuing o.OpsPerThread elements after a random start offset. It
// returns simulated nanoseconds per enqueue.
func (o Options) enqueue(m *machine.Machine, v Variant, n, b int, copt core.Options) float64 {
	q := buildQueue(m, v, n, n, b, nil, copt)
	var cycles uint64
	for t := 0; t < n; t++ {
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
	return m.Config().NSPerOp(float64(cycles) / float64(n*o.OpsPerThread))
}

// ---------------------------------------------------------------------------
// Figure 1: TxCAS vs FAA latency.

// Fig1 measures per-operation latency of a contended FAA and a contended
// TxCAS as concurrency grows (paper Figure 1).
func Fig1(o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, series := range []string{"FAA", "TxCAS"} {
		for _, n := range o.ThreadCounts {
			out = o.point(out, "fig1", series, n, n, func(m *machine.Machine) float64 {
				a := m.AllocLine(8, 0)
				var cycles uint64
				for t := 0; t < n; t++ {
					if series == "TxCAS" {
						o.goTxCAS(m, t, a, 200, core.DefaultOptions(), &cycles)
						continue
					}
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						start := p.Now()
						for i := 0; i < o.OpsPerThread; i++ {
							p.FAA(a, 1)
						}
						cycles += p.Now() - start
					})
				}
				m.Run()
				return m.Config().NSPerOp(float64(cycles) / float64(n*o.OpsPerThread))
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 5-7: queue workloads.

// EnqueueOnly measures enqueue latency and aggregate throughput while
// producers fill an initially empty queue (paper Figure 5).
func EnqueueOnly(variants []Variant, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, v := range variants {
		for _, n := range o.ThreadCounts {
			out = o.point(out, "fig5", string(v), n, n, func(m *machine.Machine) float64 {
				return o.enqueue(m, v, n, paperBasket, core.DefaultOptions())
			})
		}
	}
	return out
}

// DequeueOnly measures dequeue latency on a queue pre-filled by
// concurrent producers (paper Figure 6). Consumers are the measured
// threads; the queue never goes empty.
func DequeueOnly(variants []Variant, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, v := range variants {
		for _, n := range o.ThreadCounts {
			out = o.point(out, "fig6", string(v), n, n, func(m *machine.Machine) float64 {
				// Pre-fill with n producer threads (ids 0..n-1), per §6.1.
				fill := o.OpsPerThread + o.OpsPerThread/4 + 8
				q := buildQueue(m, v, n, 2*n, paperBasket, nil, core.DefaultOptions())
				for t := 0; t < n; t++ {
					m.Go(t, func(p *machine.Proc) {
						for i := 0; i < fill; i++ {
							q.Enqueue(p, t, element(t, i))
						}
					})
				}
				m.Run()
				var cycles uint64
				for t := 0; t < n; t++ {
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						start := p.Now()
						for i := 0; i < o.OpsPerThread; i++ {
							q.Dequeue(p, n+t)
						}
						cycles += p.Now() - start
					})
				}
				m.Run()
				return m.Config().NSPerOp(float64(cycles) / float64(n*o.OpsPerThread))
			})
		}
	}
	return out
}

// Mixed measures the normalized duration of a benchmark where producers
// (socket 0) enqueue and consumers (socket 1) dequeue the same number of
// elements from a half-full queue (paper Figure 7). Threads here counts
// both types together, matching the figure's x-axis.
func Mixed(variants []Variant, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, v := range variants {
		for _, total := range o.ThreadCounts {
			n := total / 2
			if n == 0 {
				continue
			}
			out = o.point(out, "fig7", string(v), 2*n, n, func(m *machine.Machine) float64 {
				cps := m.Config().CoresPerSocket
				q := buildQueue(m, v, n, 2*n, paperBasket, nil, core.DefaultOptions())
				prefill := o.OpsPerThread / 2
				for t := 0; t < n; t++ {
					m.Go(t, func(p *machine.Proc) {
						for i := 0; i < prefill; i++ {
							q.Enqueue(p, t, element(t, i))
						}
					})
				}
				m.Run()
				start := m.Now()
				for t := 0; t < n; t++ {
					m.Go(t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						for i := 0; i < o.OpsPerThread; i++ {
							q.Enqueue(p, t, element(t, prefill+i))
						}
					})
				}
				for t := 0; t < n; t++ {
					m.Go(cps+t, func(p *machine.Proc) {
						p.Delay(p.RandN(200))
						done := 0
						for done < o.OpsPerThread {
							if _, ok := q.Dequeue(p, n+t); ok {
								done++
							} else {
								p.Delay(100)
							}
						}
					})
				}
				m.Run()
				perOp := float64(m.Now()-start) * float64(2*n) / float64(2*n*o.OpsPerThread)
				return m.Config().NSPerOp(perOp)
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Ablations.

// DelaySweep measures TxCAS latency across intra-transaction delays, in
// nanoseconds, at each of the given thread counts (paper §4.1's tuning;
// the paper settles on ~270 ns).
func DelaySweep(delaysNS []float64, threads []int, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, dns := range delaysNS {
		for _, n := range threads {
			out = o.point(out, "txcas", fmt.Sprintf("delay=%.0fns", dns), n, n, func(m *machine.Machine) float64 {
				opt := core.DefaultOptions()
				opt.Delay = uint64(dns * m.Config().CyclesPerNS)
				a := m.AllocLine(8, 0)
				var cycles uint64
				for t := 0; t < n; t++ {
					o.goTxCAS(m, t, a, 200, opt, &cycles)
				}
				m.Run()
				return m.Config().NSPerOp(float64(cycles) / float64(n*o.OpsPerThread))
			})
		}
	}
	return out
}

// BasketSweep measures SBQ-HTM enqueue latency across basket sizes at a
// fixed thread count (the O(B/T) initialization amortization of §5.3.4).
func BasketSweep(sizes []int, threads int, o Options) []Result {
	o = o.withDefaults()
	var out []Result
	for _, b := range sizes {
		out = o.point(out, "basket", fmt.Sprintf("B=%d", b), threads, threads, func(m *machine.Machine) float64 {
			return o.enqueue(m, SBQHTM, threads, b, core.DefaultOptions())
		})
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

// FixAblation measures cross-socket TxCAS with and without the §3.4.1
// microarchitectural fix. TxCASers run on both sockets, which is exactly
// the configuration §4.3 rules out on current hardware: the post-abort
// check reads from the remote socket land inside a committing writer's
// (long, cross-socket) xend drain window and trip it. The proposed fix
// stalls those reads until the transaction commits.
func FixAblation(o Options) []FixResult {
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
	const perSocket = 6
	var out []FixResult
	for _, cf := range configs {
		cfg := machine.Default()
		cfg.TrippedWriterFix = cf.fix
		cfg.Seed = 1
		cfg.Faults = o.Faults
		m := machine.New(cfg)
		a := m.AllocLine(8, 0)
		opt := core.DefaultOptions()
		opt.PostAbortDelay = cf.pad
		var cycles uint64
		for s := 0; s < 2; s++ {
			for t := 0; t < perSocket; t++ {
				o.goTxCAS(m, s*cfg.CoresPerSocket+t, a, 400, opt, &cycles)
			}
		}
		m.Run()
		r := FixResult{
			Label:          cf.label,
			Fix:            cf.fix,
			PostAbortDelay: cf.pad,
			NSPerOp:        cfg.NSPerOp(float64(cycles) / float64(2*perSocket*o.OpsPerThread)),
			TrippedWriters: m.Stats.TrippedWriters,
			FixStalls:      m.Stats.FixStalls,
			Aborts:         m.Stats.TxAborts,
			Commits:        m.Stats.TxCommits,
		}
		out = append(out, r)
		o.progress("%s: %.0f ns/op, tripped=%d stalls=%d aborts=%d commits=%d\n",
			r.Label, r.NSPerOp, r.TrippedWriters, r.FixStalls, r.Aborts, r.Commits)
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
