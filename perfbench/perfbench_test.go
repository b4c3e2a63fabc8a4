package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileNeedsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.50, false},
		{20, 0.50, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{0, 0.50, false},
	} {
		var h hist
		for i := 1; i <= c.n; i++ {
			h.add(int64(i))
		}
		if _, ok := h.quantile(c.q); ok != c.want {
			t.Errorf("n=%d q=%v: ok=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestQuantileAccuracy(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.add(int64(i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, ok := h.quantile(q)
		want := q * 100000
		if !ok || math.Abs(got-want)/want > 0.04 {
			t.Errorf("q=%v: got %v (ok=%v), want %v within 4%%", q, got, ok, want)
		}
	}
	if h.sum != 100000*100001/2 {
		t.Errorf("sum = %d", h.sum)
	}
}

func TestBucketsAreContiguous(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketRange(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%v, %v), previous ended at %v", i, lo, hi, prevHi)
		}
		if b := bucketOf(uint64(lo)); b != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo, b, i)
		}
		prevHi = hi
	}
}

func TestSteadyWindows(t *testing.T) {
	for _, c := range []struct {
		share []float64
		want  []int
	}{
		{[]float64{0.99, 1.00, 0.97, 0.60, 0.901, 0.899}, []int{0, 1, 2, 4}},
		{[]float64{0.5, 0.4}, []int{0}}, // a wholly disturbed run keeps its best window
		{[]float64{0, 0}, []int{0, 1}},
	} {
		if got := steadyWindows(c.share); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("steadyWindows(%v) = %v, want %v", c.share, got, c.want)
		}
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	for _, c := range []struct{ num, den, want float64 }{
		{5, 0, 0},
		{0, 0, 0},
		{1, 4, 0.25},
	} {
		if got := ratio(c.num, c.den); got != c.want {
			t.Errorf("ratio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 || xs[0] != 3 {
		t.Errorf("median = %v (input now %v)", got, xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"ops_per_s", "queue.enqueue_ns_p50", "jobs-http", "9lives", "a"} {
		if !validName(s) {
			t.Errorf("%q should be valid", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("%q should be invalid", s)
		}
	}
	for _, d := range workloads {
		if !validName(d.name) {
			t.Errorf("workload name %q is invalid", d.name)
		}
	}
}

func TestReportRejectsUndeclaredNames(t *testing.T) {
	r := newReport(endToEnd)
	newReport(perLayer)
	r.set("ops_per_s", math.NaN())
	if r.vals["ops_per_s"] != 0 {
		t.Error("NaN should be reported as 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric should panic")
		}
	}()
	r.set("ops_per_sec", 1)
}

// The metric lists in metrics.go must match BENCHMARK.json name for name
// and unit for unit, in order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s %s here, %s %s in BENCHMARK.json", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, workloads[i].name, w.Name)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	p := span{start: 0, end: 100}
	kids := []span{
		{start: 10, end: 40},
		{start: 30, end: 60},   // overlaps the first: [10,60) counted once
		{start: 90, end: 120},  // clipped to the parent: [90,100)
		{start: 200, end: 300}, // outside the parent
		{start: 50, end: 55},   // inside an earlier child
	}
	if got := selfTime(p, kids); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(p, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestSelfShares(t *testing.T) {
	spans := []span{
		{name: "cycle", unit: 1, id: 1, start: 0, end: 100},
		{name: "http.submit", unit: 1, id: 2, parent: 1, start: 0, end: 60},
		{name: "http.handler", unit: 1, id: handlerID(2), parent: 2, start: 20, end: 50},
		{name: "http.lease", unit: 1, id: 3, parent: 1, start: 60, end: 90},
		// A second unit's spans must not count as children of the first.
		{name: "cycle", unit: 2, id: 1, start: 0, end: 100},
		{name: "http.submit", unit: 2, id: 2, parent: 1, start: 0, end: 100},
	}
	shares, units := selfShares(spans)
	if units != 2 {
		t.Errorf("units = %d, want 2", units)
	}
	want := map[string]float64{"bench": 10.0 / 200, "http_client": 160.0 / 200, "http_handler": 30.0 / 200}
	for l, v := range want {
		if math.Abs(shares[l]-v) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], v)
		}
	}
}

func TestRuntimeDelta(t *testing.T) {
	a := rtSnap{
		scalars: map[string]float64{rtAllocBytes: 100, rtMutexWait: 0.5},
		hists: map[string]rtHist{
			rtSchedLat: {counts: []uint64{1, 2, 3}, buckets: []float64{math.Inf(-1), 1, 2, math.Inf(1)}},
			"/odd":     {counts: []uint64{1}, buckets: []float64{0, 1}},
		},
	}
	b := rtSnap{
		scalars: map[string]float64{rtAllocBytes: 1100, rtMutexWait: 0.75, rtGCCycles: 3},
		hists: map[string]rtHist{
			rtSchedLat: {counts: []uint64{1, 12, 1003}, buckets: []float64{math.Inf(-1), 1, 2, math.Inf(1)}},
			"/odd":     {counts: []uint64{1, 1}, buckets: []float64{0, 1, 2}},
		},
	}
	d := b.since(a)
	if d.scalars[rtAllocBytes] != 1000 || d.scalars[rtMutexWait] != 0.25 || d.scalars[rtGCCycles] != 3 {
		t.Errorf("scalar deltas = %v", d.scalars)
	}
	h := d.hists[rtSchedLat]
	if h.counts[0] != 0 || h.counts[1] != 10 || h.counts[2] != 1000 || h.total() != 1010 {
		t.Errorf("histogram delta = %v", h.counts)
	}
	if _, ok := d.hists["/odd"]; ok {
		t.Error("a histogram whose layout changed should be dropped")
	}
	// 10 samples in [1,2), 1000 in [2,+Inf): the p50 lies in the open
	// bucket and reads as its finite bound.
	if v, ok := h.quantile(0.5); !ok || v != 2 {
		t.Errorf("p50 = %v (ok=%v), want 2", v, ok)
	}
	if _, ok := h.quantile(0.999); ok {
		t.Error("p99.9 of 1010 samples has only 1 beyond it")
	}

	// Small allocations reach the counter when a P's cache flushes, so
	// allow some lag.
	before := readRuntime()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	got := readRuntime().since(before).scalars[rtAllocBytes]
	if got < 0.9*(4<<20) || len(sink) != 64 {
		t.Errorf("allocated 4 MiB, runtime/metrics saw %v bytes", got)
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	for _, v := range []uint64{3, 1, 2, 0} {
		a.add(v)
	}
	if a != tallyRange(0, 4) {
		t.Errorf("tally of {0..3} in any order = %+v, want %+v", a, tallyRange(0, 4))
	}
	// One value lost and another duplicated keeps the count, not the sums.
	for _, v := range []uint64{0, 1, 1, 3} {
		b.add(v)
	}
	if b.n != a.n || b == a {
		t.Errorf("lost+duplicated tally %+v should differ from %+v in its sums only", b, a)
	}
	var m tally
	m.merge(tallyRange(0, 2))
	m.merge(tallyRange(2, 4))
	if m != a {
		t.Errorf("merged tally %+v, want %+v", m, a)
	}
}

func TestStride(t *testing.T) {
	r := newRNG(7, 1)
	sum := 0
	for i := 0; i < 100000; i++ {
		s := r.stride(16)
		if s < 1 || s > 31 {
			t.Fatalf("stride %d outside [1, 31]", s)
		}
		sum += s
	}
	if mean := float64(sum) / 100000; math.Abs(mean-16) > 0.2 {
		t.Errorf("mean stride %v, want 16", mean)
	}
	first := func(seed uint64) uint64 {
		r := newRNG(seed, 1)
		return r.next()
	}
	if first(7) != first(7) || first(7) == first(8) {
		t.Error("streams must depend on the seed and only on it")
	}
}

func TestPayloads(t *testing.T) {
	p := makePayloads(3)
	s := &jobsSystem{payloads: p}
	if !json.Valid(p[17]) || !s.payloadOK(p[17]) {
		t.Errorf("payload %s should be valid and check out", p[17])
	}
	if string(makePayloads(3)[5]) != string(p[5]) || string(makePayloads(4)[5]) == string(p[5]) {
		t.Error("payloads must depend on the seed and only on it")
	}
	bad := append([]byte(nil), p[17]...)
	bad[len(bad)-3] ^= 1
	for _, b := range [][]byte{bad, p[18][:10], []byte(`{"i":9999,"d":""}`), []byte(`"x"`)} {
		if s.payloadOK(b) {
			t.Errorf("payload %s should fail the check", b)
		}
	}
}

func TestLinkRoundTrip(t *testing.T) {
	unit, call, tid, ok := parseLink(link(1<<48|5, 3, 1))
	if !ok || unit != 1<<48|5 || call != 3 || tid != 1 {
		t.Errorf("parseLink = %d %d %d %v", unit, call, tid, ok)
	}
	for _, s := range []string{"", "1.2", "a.b.c", "1.2.3.4"} {
		if _, _, _, ok := parseLink(s); ok {
			t.Errorf("parseLink(%q) should fail", s)
		}
	}
}

func TestSBQChecksCatchViolations(t *testing.T) {
	sys, err := buildSBQ(false)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.(*sbqSystem)
	if err := s.record(0, 1<<seqBits|5); err != nil {
		t.Fatal(err)
	}
	if err := s.record(0, 1<<seqBits|3); err == nil {
		t.Error("out-of-order values from one producer should fail the FIFO check")
	}
	if err := s.record(0, 7<<seqBits); err == nil {
		t.Error("a value naming no producer should fail")
	}
	s.side[1].next = 10 // producer 1 "enqueued" 10 values; only #5 came out
	bad := s.verify(nil)
	if len(bad) != 1 || !strings.Contains(bad[0], "producer 1: 1 values dequeued, 10 enqueued") {
		t.Errorf("verify = %q", bad)
	}
	s.side[1].next = 6 // 6 went in and 6 came out, but not the same 6
	s.side[0].seen[1] = tallyRange(0, 6)
	s.side[0].seen[1].sum++
	if bad := s.verify(nil); len(bad) != 1 || !strings.Contains(bad[0], "lost and others dequeued twice") {
		t.Errorf("verify = %q", bad)
	}
}

// Every workload runs briefly, end to end and traced, without a failure.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, d := range workloads {
		for _, traced := range []bool{false, true} {
			sys, err := d.build(traced, 1)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			ws := []*worker{newWorker(0, 1, traced, 2, d.latStride, 1), newWorker(1, 1, traced, 2, d.latStride, 1)}
			ph := drive(sys, ws, 20*time.Millisecond, 50*time.Millisecond)
			if ph.failed() != 0 || ph.units == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v %q", d.name, traced, ph.failed(), ph.attempted(), ph.firstErr(), ph.checks)
			}
			if traced {
				r := newReport(perLayer)
				sys.layers(r, ph)
				if len(ph.allSpans()) == 0 {
					t.Errorf("%s: no spans recorded", d.name)
				}
			}
			if err := sys.close(); err != nil {
				t.Errorf("%s: close: %v", d.name, err)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "queue-sbq", "-seconds", "0"},
		{"-workload", "queue-sbq", "-trace", "2"},
		{"-bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
