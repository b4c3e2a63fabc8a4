package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// histSub is the number of linear sub-buckets per power of two (relative
// bucket width 1/32, about 3%); histMaxBit caps recorded values at 2^41 ns.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxBit  = 41
	histBuckets = histSub + (histMaxBit-histSubBits)*histSub
)

// hist is a log-linear latency histogram of nanosecond values. It never
// allocates after construction, so recording into it does not disturb the
// allocation metrics it sits next to.
type hist struct {
	n, sum uint64
	counts [histBuckets]uint64
}

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBit {
		v = 1<<histMaxBit - 1
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return histSub + shift*histSub + int(v>>uint(shift)) - histSub
}

// bucketRange returns bucket i's value interval [lo, hi).
func bucketRange(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	shift := (i - histSub) / histSub
	top := uint64(histSub + (i-histSub)%histSub)
	return float64(top << uint(shift)), float64((top + 1) << uint(shift))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside its bucket. ok is false when fewer than minBeyond samples lie
// beyond it: such a percentile would be set by a handful of outliers.
func (h *hist) quantile(q float64) (float64, bool) {
	if !enoughBeyond(h.n, q) {
		return 0, false
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-cum)/float64(c), true
		}
		cum += float64(c)
	}
	lo, hi := bucketRange(histBuckets - 1)
	return hi - (hi-lo)/2, true
}

// enoughBeyond reports whether n samples leave at least minBeyond beyond
// the q-quantile.
func enoughBeyond(n uint64, q float64) bool {
	return q >= 0 && q < 1 && math.Floor((1-q)*float64(n)+1e-9) >= minBeyond
}

// ratio is num/den, or 0 when den is 0 (nothing attempted, nothing wasted).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the middle of xs (mean of the two middles for an even
// count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// validName reports whether s is a legal metric or workload name: 1 to 64
// characters from [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// metricDef declares one reported metric; the lists in metrics.go mirror
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// report holds one value per declared metric, in declaration order.
// Metrics a workload does not reach stay 0 (nothing of that kind
// happened); setting an undeclared name is a bug and panics, so a typo
// cannot silently drop a number from the result line.
type report struct {
	defs []metricDef
	vals map[string]float64
}

func newReport(defs []metricDef) *report {
	r := &report{defs: defs, vals: map[string]float64{}}
	for _, d := range defs {
		if !validName(d.name) {
			panic(fmt.Sprintf("perfbench: invalid metric name %q", d.name))
		}
		if _, dup := r.vals[d.name]; dup {
			panic(fmt.Sprintf("perfbench: metric %q declared twice", d.name))
		}
		r.vals[d.name] = 0
	}
	return r
}

func (r *report) set(name string, v float64) {
	if _, ok := r.vals[name]; !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.vals[name] = v
}

// tally summarises a multiset of integers (sequence numbers, job ids) in
// constant space: count, sum and sum of squares, mod 2^64. Equal tallies
// mean equal multisets for any realistic fault: one lost value and one
// duplicated value shift the sum unless they are the same value, and
// several faults would have to cancel in both sums at once.
type tally struct{ n, sum, sq uint64 }

func (t *tally) add(v uint64) {
	t.n++
	t.sum += v
	t.sq += v * v
}

func (t *tally) merge(o tally) {
	t.n += o.n
	t.sum += o.sum
	t.sq += o.sq
}

// tallyRange returns the tally of lo, lo+1, ..., hi-1.
func tallyRange(lo, hi uint64) tally {
	var t tally
	for v := lo; v < hi; v++ {
		t.add(v)
	}
	return t
}

// rng is a splitmix64 stream: every seeded choice in the benchmark (payload
// bytes, nack choice, sampling strides) draws from one of these.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) rng {
	return rng{s: seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// stride returns a random gap in [1, 2*mean-1], mean >= 1: sampling at
// random strides cannot alias with any periodic structure in the program
// (segment or basket boundaries), as a fixed power-of-two stride can.
func (r *rng) stride(mean int) int {
	if mean <= 1 {
		return 1
	}
	return 1 + int(r.next()%uint64(2*mean-1))
}
