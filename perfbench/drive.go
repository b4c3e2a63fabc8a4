package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Per-call latency histograms a traced phase keeps on every worker. Each
// workload uses the ones for the layer it calls into.
const (
	opEnqueue = iota
	opDequeue
	opSubmit
	opLease
	opAck
	opNack
	numOps
)

// maxSpanUnits bounds how many sampled units one worker keeps spans for;
// maxUnitSpans bounds the client-side spans of one unit (the root and up
// to five calls: a job cycle that nacks makes five).
const (
	maxSpanUnits = 4096
	maxUnitSpans = 6
)

// system is one built system under test, driven by closed-loop workers.
type system interface {
	// unit runs one unit of work (an SBQ pair, a job cycle) for w and
	// records its outcome into st.
	unit(w *worker, st *winStats)
	// verify runs the output checks once the workers have stopped and
	// returns one line per violation.
	verify(ws []*worker) []string
	// layers adds the workload's per-layer metrics for a traced phase.
	layers(r *report, ph *phase)
	// close releases the system and waits for everything it started.
	close() error
}

// winStats is what the workers record in one measurement window.
type winStats struct {
	units uint64
	lat   hist // sampled unit latencies
}

// worker is one closed-loop client. Everything on it is owned by its
// goroutine until the phase ends.
type worker struct {
	id     int
	rng    rng
	traced bool

	latStride, latLeft   int // sample a unit's latency every latStride units on average
	spanStride, spanLeft int

	units, failed uint64
	firstErr      error

	ops     [numOps]hist // per-call latencies (traced phases only)
	spans   []span
	unitSeq uint64
	warm    winStats
	wins    []winStats
}

func newWorker(id int, seed uint64, traced bool, nWin, latStride, spanStride int) *worker {
	w := &worker{
		id: id, rng: newRNG(seed, uint64(id)+1), traced: traced,
		latStride: latStride, spanStride: spanStride,
		wins: make([]winStats, nWin),
	}
	w.latLeft = w.rng.stride(latStride)
	w.spanLeft = w.rng.stride(spanStride)
	if traced {
		w.spans = make([]span, 0, maxSpanUnits*maxUnitSpans)
	}
	return w
}

// sampleLat reports whether this unit's latency is to be timed.
func (w *worker) sampleLat() bool {
	w.latLeft--
	if w.latLeft > 0 {
		return false
	}
	w.latLeft = w.rng.stride(w.latStride)
	return true
}

// sampleSpan reports whether this unit keeps spans, returning its unit
// id. Only traced phases sample, up to maxSpanUnits units per worker.
func (w *worker) sampleSpan() (uint64, bool) {
	if !w.traced || w.unitSeq >= maxSpanUnits {
		return 0, false
	}
	w.spanLeft--
	if w.spanLeft > 0 {
		return 0, false
	}
	w.spanLeft = w.rng.stride(w.spanStride)
	w.unitSeq++
	return uint64(w.id)<<48 | w.unitSeq, true
}

func (w *worker) span(name string, unit uint64, id, parent uint32, start, end int64) {
	w.spans = append(w.spans, span{name: name, unit: unit, id: id, parent: parent, tid: int32(w.id), start: start, end: end})
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// phase is the outcome of one warmed-up, windowed measurement.
type phase struct {
	workers []*worker
	winDur  []time.Duration
	// cpuShare is, per window, the CPU time the process got over the CPU
	// time GOMAXPROCS would allow; use lists the windows the timing
	// metrics come from (see steadyWindows).
	cpuShare []float64
	use      []int
	rt       rtSnap // runtime/metrics change across the measured windows
	units    uint64 // units started inside the windows
	checks   []string
	// extraSpans holds spans recorded off the client goroutines (the HTTP
	// server's handler), added by the system's layers method.
	extraSpans []span
}

// attempted and failed count every unit the phase ran, warm-up included,
// plus one failure per output-check violation.
func (p *phase) attempted() uint64 {
	var n uint64
	for _, w := range p.workers {
		n += w.units
	}
	return n
}

func (p *phase) failed() uint64 {
	n := uint64(len(p.checks))
	for _, w := range p.workers {
		n += w.failed
	}
	return n
}

func (p *phase) firstErr() error {
	for _, w := range p.workers {
		if w.firstErr != nil {
			return fmt.Errorf("client %d: %w", w.id, w.firstErr)
		}
	}
	return nil
}

// winOps returns units per second in each used window.
func (p *phase) winOps() []float64 {
	out := make([]float64, 0, len(p.use))
	for _, i := range p.use {
		var n uint64
		for _, w := range p.workers {
			n += w.wins[i].units
		}
		out = append(out, float64(n)/p.winDur[i].Seconds())
	}
	return out
}

// winQuantile returns the q-quantile of unit latency (ns) in every used
// window that has enough samples for it.
func (p *phase) winQuantile(q float64) []float64 {
	var out []float64
	for _, i := range p.use {
		var h hist
		for _, w := range p.workers {
			h.merge(&w.wins[i].lat)
		}
		if v, ok := h.quantile(q); ok {
			out = append(out, v)
		}
	}
	return out
}

func (p *phase) latSamples() uint64 {
	var n uint64
	for _, w := range p.workers {
		for i := range w.wins {
			n += w.wins[i].lat.n
		}
	}
	return n
}

// latSum is the summed latency (ns) of every timed unit, warm-up
// included.
func (p *phase) latSum() uint64 {
	var n uint64
	for _, w := range p.workers {
		n += w.warm.lat.sum
		for i := range w.wins {
			n += w.wins[i].lat.sum
		}
	}
	return n
}

// opHist merges one per-call histogram across workers.
func (p *phase) opHist(op int) *hist {
	h := new(hist)
	for _, w := range p.workers {
		h.merge(&w.ops[op])
	}
	return h
}

func (p *phase) allSpans() []span {
	var out []span
	for _, w := range p.workers {
		out = append(out, w.spans...)
	}
	return out
}

// drive runs ws against sys: warm-up, then nWin windows of win each. Every
// worker runs units back to back (a closed loop) until the last window
// closes; drive returns once they have all stopped.
func drive(sys system, ws []*worker, warm, win time.Duration) *phase {
	nWin := len(ws[0].wins)
	var clock atomic.Int32 // -1 warm-up, i window i, nWin stop
	clock.Store(-1)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := clock.Load()
				if int(i) >= nWin {
					return
				}
				st := &w.warm
				if i >= 0 {
					st = &w.wins[i]
				}
				w.units++
				st.units++
				sys.unit(w, st)
			}
		}(w)
	}
	time.Sleep(warm)
	p := &phase{workers: ws, winDur: make([]time.Duration, nWin), cpuShare: make([]float64, nWin)}
	procs := float64(runtime.GOMAXPROCS(0))
	rt0 := readRuntime()
	t0, cpu0 := time.Now(), cpuTime()
	clock.Store(0)
	prev, prevCPU := t0, cpu0
	for i := 0; i < nWin; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i+1) * win)))
		now, cpu := time.Now(), cpuTime()
		clock.Store(int32(i + 1))
		p.winDur[i] = now.Sub(prev)
		p.cpuShare[i] = (cpu - prevCPU).Seconds() / (p.winDur[i].Seconds() * procs)
		prev, prevCPU = now, cpu
	}
	p.rt = readRuntime().since(rt0)
	p.use = steadyWindows(p.cpuShare)
	wg.Wait()
	for _, w := range ws {
		for i := range w.wins {
			p.units += w.wins[i].units
		}
	}
	p.checks = sys.verify(ws)
	return p
}

// steadyShare is how much of its best window's CPU share a window must get
// to count as steady.
const steadyShare = 0.9

// steadyWindows returns the windows in which the process got at least
// steadyShare of the CPU share it got in its best window. The clients
// never idle by choice (a closed loop), so a window with a clearly lower
// share is one in which the machine ran something else — another guest's
// vCPU or another process — and its timings measured that, not the
// program. At least the best window is always kept.
func steadyWindows(share []float64) []int {
	best := 0.0
	for _, s := range share {
		best = max(best, s)
	}
	var use []int
	for i, s := range share {
		if s >= steadyShare*best {
			use = append(use, i)
		}
	}
	return use
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
