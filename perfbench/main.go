// Command perfbench is the repository's benchmark. It drives one workload
// through public entry points only — queue/registry views, service.Service
// methods and service.Handler — with closed-loop clients in this process,
// checks the outputs, and prints every metric by name and unit, then one
// JSON result line.
//
//	perfbench -workload jobs-http -seed 7 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload once untraced and once traced (half the time each) and
// reports the per-layer metrics, writing the traced run's spans as a
// Chrome trace-event file under -out. See README.md for the workloads and
// the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// clients is the number of closed-loop client goroutines (and, on
// jobs-http, connections). The benchmark refuses to run on fewer CPUs.
const clients = 2

const (
	warmup    = 2 * time.Second
	setupReps = 9 // set-ups per end-to-end run; setup_s is their median
)

type workloadDef struct {
	name, unit string // unit names one unit of work
	build      func(traced bool, seed uint64) (system, error)
	latStride  int // mean units between timed units
	spanStride int // mean units between traced units
}

var workloads = []workloadDef{
	{"queue-sbq", "pair", func(traced bool, _ uint64) (system, error) { return buildSBQ(traced) }, sbqLatStride, sbqSpanStride},
	{"jobs-inproc", "cycle", func(traced bool, seed uint64) (system, error) { return buildJobs(false, traced, seed) }, 1, inprocSpanStride},
	{"jobs-http", "cycle", func(traced bool, seed uint64) (system, error) { return buildJobs(true, traced, seed) }, 1, httpSpanStride},
}

type options struct {
	def     workloadDef
	seed    uint64
	seconds int
	trace   int
	out     string
}

// env stamps every result with what it was measured on.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Clients    int    `json:"clients"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// result is one run's outcome.
type result struct {
	rep               *report
	attempted, failed uint64
	problems          []string // first client error and every check violation
	notes             []string // extra lines for the reader
	windows           map[string][]float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: payload bytes, nack choice, sampling strides")
	seconds := fs.Int("seconds", 10, "measured seconds (after a fixed warm-up)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace, out: *out}
	found := false
	for _, d := range workloads {
		if d.name == *name {
			o.def, found = d, true
		}
	}
	switch {
	case !found:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case clients > runtime.NumCPU():
		fmt.Fprintf(stderr, "perfbench: refusing to run %d clients on %d CPUs\n", clients, runtime.NumCPU())
		return 2
	}
	e := env{
		Workload: o.def.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Clients: clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	fmt.Fprintf(stdout, "perfbench %s: seed=%d seconds=%d trace=%d clients=%d gomaxprocs=%d num_cpu=%d cpu=%q go=%s %s/%s\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.Clients, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, e.GOOS, e.GOARCH)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	var res *result
	var err error
	if o.trace == 0 {
		res, err = runEndToEnd(o)
	} else {
		res, err = runTraced(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	for _, d := range res.rep.defs {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", d.name, res.rep.vals[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "%-32s %16.6g ratio (%d failed of %d %ss attempted)\n",
		"error_ratio", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, o.def.unit)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	record := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.def.name, o.seed, o.trace))
	if err := writeRecord(record, e, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range res.rep.defs {
		line.Metrics[d.name] = value{res.rep.vals[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if res.failed != 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, d := range workloads {
		n = append(n, d.name)
	}
	return strings.Join(n, ", ")
}

// measure drives a built system for d: fixed warm-up, then one-second
// windows (at least two).
func measure(o options, sys system, traced bool, d time.Duration) *phase {
	nWin := max(2, int(d/time.Second))
	ws := make([]*worker, clients)
	for i := range ws {
		ws[i] = newWorker(i, o.seed, traced, nWin, o.def.latStride, o.def.spanStride)
	}
	return drive(sys, ws, warmup, d/time.Duration(nWin))
}

// addOutcome folds a phase's failures into res.
func (res *result) addOutcome(ph *phase) {
	res.attempted += ph.attempted()
	res.failed += ph.failed()
	if err := ph.firstErr(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.problems = append(res.problems, ph.checks...)
}

// runEndToEnd sets the system up setupReps times (timing each), measures
// the last one with tracing off, and reports the end-to-end metrics. Every
// timing is a median: over set-ups, or over the one-second windows.
func runEndToEnd(o options) (*result, error) {
	var setups []float64
	var sys system
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		s, err := o.def.build(false, o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			sys = s
		}
	}
	runtime.GC()
	ph := measure(o, sys, false, time.Duration(o.seconds)*time.Second)
	if err := sys.close(); err != nil {
		return nil, err
	}

	res := &result{rep: newReport(endToEnd), windows: map[string][]float64{}}
	res.addOutcome(ph)
	ops, p50, p99 := ph.winOps(), ph.winQuantile(0.50), ph.winQuantile(0.99)
	if 2*len(p99) < len(ph.use) {
		return nil, fmt.Errorf("only %d of %d windows hold enough latency samples for a p99", len(p99), len(ph.use))
	}
	res.rep.set("ops_per_s", median(ops))
	res.rep.set("latency_p50_us", median(p50)/1e3)
	res.rep.set("latency_p99_us", median(p99)/1e3)
	res.rep.set("success_ratio", 1-ratio(float64(res.failed), float64(res.attempted)))
	res.rep.set("alloc_bytes_per_op", ratio(ph.rt.scalars[rtAllocBytes], float64(ph.units)))
	res.rep.set("setup_s", median(setups))
	res.windows["ops_per_s"] = ops
	res.windows["latency_p50_us"] = scale(p50, 1e-3)
	res.windows["latency_p99_us"] = scale(p99, 1e-3)
	res.windows["setup_s"] = setups
	res.windows["cpu_share"] = ph.cpuShare
	res.notes = append(res.notes, fmt.Sprintf("medians over the %d steady windows of %d (%s each); %d latency samples; one op = one %s",
		len(ph.use), len(ph.winDur), ph.winDur[0].Round(time.Millisecond), ph.latSamples(), o.def.unit))
	return res, nil
}

// runTraced measures the workload untraced, then traced, for half the run
// each, and reports the per-layer metrics of the traced half.
func runTraced(o options) (*result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	res := &result{rep: newReport(perLayer), windows: map[string][]float64{}}
	var phases [2]*phase
	var sys system
	for i, traced := range []bool{false, true} {
		s, err := o.def.build(traced, o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		ph := measure(o, s, traced, half)
		res.addOutcome(ph)
		phases[i] = ph
		if traced {
			sys = s // closed after layers reads it
		} else if err := s.close(); err != nil {
			return nil, err
		}
	}
	plain, ph := phases[0], phases[1]
	sys.layers(res.rep, ph)
	if err := sys.close(); err != nil {
		return nil, err
	}

	r := res.rep
	units := float64(ph.units)
	rt := ph.rt.scalars
	r.set("runtime.gc_cpu_ratio", ratio(rt[rtGCCPU], rt[rtTotalCPU]))
	r.set("runtime.gc_cycles_per_mop", ratio(rt[rtGCCycles], units/1e6))
	if p99, ok := ph.rt.hists[rtSchedLat].quantile(0.99); ok {
		r.set("runtime.sched_latency_us_p99", p99*1e6)
	}
	r.set("service.mutex_wait_ns_per_op", ratio(rt[rtMutexWait]*1e9, units))
	r.set("bench.latency_samples", float64(plain.latSamples()))
	r.set("bench.trace_overhead_ratio", ratio(median(ph.winOps()), median(plain.winOps())))

	spans := append(ph.allSpans(), ph.extraSpans...)
	shares, n := selfShares(spans)
	for layer, share := range shares {
		r.set("self."+layer+"_share", share)
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.json", o.def.name, o.seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return nil, err
	}
	res.windows["ops_per_s_untraced"] = plain.winOps()
	res.windows["ops_per_s_traced"] = ph.winOps()
	res.windows["cpu_share_untraced"] = plain.cpuShare
	res.windows["cpu_share_traced"] = ph.cpuShare
	res.notes = append(res.notes, fmt.Sprintf("spans: %d from %d sampled %ss written to %s", len(spans), n, o.def.unit, path))
	return res, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// writeRecord saves the run's environment, metrics and per-window values.
func writeRecord(path string, e env, res *result) error {
	metrics := map[string]float64{}
	for _, d := range res.rep.defs {
		metrics[d.name] = res.rep.vals[d.name]
	}
	b, err := json.MarshalIndent(struct {
		Env       env                  `json:"env"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Problems  []string             `json:"problems,omitempty"`
		Metrics   map[string]float64   `json:"metrics"`
		Windows   map[string][]float64 `json:"windows"`
	}{e, res.attempted, res.failed, res.problems, metrics, res.windows}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	return nil
}

// cpuModel reads the CPU model name the kernel reports, for the
// environment stamp.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
