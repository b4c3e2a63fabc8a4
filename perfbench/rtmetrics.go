package main

import (
	"math"
	"runtime/metrics"
)

// Go runtime/metrics the benchmark reads around every measured phase.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtMutexWait  = "/sync/mutex/wait/total:seconds"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

var rtNames = []string{rtAllocBytes, rtGCCycles, rtMutexWait, rtGCCPU, rtTotalCPU, rtSchedLat}

// rtHist is a runtime/metrics histogram: counts[i] samples fell in
// [buckets[i], buckets[i+1]).
type rtHist struct {
	counts  []uint64
	buckets []float64
}

// rtSnap is one reading of rtNames: scalar metrics as float64, histogram
// metrics as rtHist. A metric this Go version lacks reads as 0.
type rtSnap struct {
	scalars map[string]float64
	hists   map[string]rtHist
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := rtSnap{scalars: map[string]float64{}, hists: map[string]rtHist{}}
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.scalars[sm.Name] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.scalars[sm.Name] = sm.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := sm.Value.Float64Histogram()
			s.hists[sm.Name] = rtHist{
				counts:  append([]uint64(nil), h.Counts...),
				buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return s
}

// since returns the change from an earlier reading to s. Histograms whose
// bucket layouts differ (never within one process) come back empty.
func (s rtSnap) since(earlier rtSnap) rtSnap {
	d := rtSnap{scalars: map[string]float64{}, hists: map[string]rtHist{}}
	for n, v := range s.scalars {
		d.scalars[n] = v - earlier.scalars[n]
	}
	for n, h := range s.hists {
		e, ok := earlier.hists[n]
		if ok && len(e.counts) != len(h.counts) {
			continue
		}
		dh := rtHist{counts: make([]uint64, len(h.counts)), buckets: h.buckets}
		for i, c := range h.counts {
			if ok {
				c -= e.counts[i]
			}
			dh.counts[i] = c
		}
		d.hists[n] = dh
	}
	return d
}

func (h rtHist) total() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// quantile returns the q-quantile of h, interpolated inside its bucket
// (an infinite bound collapses to the finite one), and false when fewer
// than minBeyond samples lie beyond it.
func (h rtHist) quantile(q float64) (float64, bool) {
	n := h.total()
	if !enoughBeyond(n, q) {
		return 0, false
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 || cum+float64(c) <= rank {
			cum += float64(c)
			continue
		}
		lo, hi := h.buckets[i], h.buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi, true
		case math.IsInf(hi, 1):
			return lo, true
		}
		return lo + (hi-lo)*(rank-cum)/float64(c), true
	}
	return 0, false
}
