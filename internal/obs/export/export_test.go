package export

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// testSources returns two recorders and a function that snapshots both
// under their labels, as a service's tenant scopes are exported.
func testSources() (*obs.Stats, *obs.Stats, func() []LabeledSnapshot) {
	a, b := obs.New(), obs.New()
	return a, b, func() []LabeledSnapshot {
		return []LabeledSnapshot{
			{Labels: Labels{"tenant": "alpha", "queue": "Sharded-FAA"}, Snap: a.Snapshot()},
			{Labels: Labels{"tenant": "beta", "queue": "SBQ"}, Snap: b.Snapshot()},
		}
	}
}

func render(t *testing.T, snaps []LabeledSnapshot, gauges []Sample) string {
	t.Helper()
	var b strings.Builder
	if err := Write(&b, snaps, gauges); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return b.String()
}

func scrape(t *testing.T, snaps []LabeledSnapshot, gauges []Sample) *Scrape {
	t.Helper()
	page := render(t, snaps, gauges)
	s, err := Parse(strings.NewReader(page))
	if err != nil {
		t.Fatalf("Parse of own output: %v\n%s", err, page)
	}
	return s
}

func TestWriteRoundTrip(t *testing.T) {
	a, b, snaps := testSources()
	a.Add(obs.SrvSubmits, 100)
	a.Add(obs.CASAttempts, 50)
	a.Add(obs.CASFailures, 10)
	b.Add(obs.SrvSubmits, 7)
	a.Observe(obs.LeaseLatency, 0)
	a.Observe(obs.LeaseLatency, 5)
	a.Observe(obs.LeaseLatency, 1000)

	s := scrape(t, snaps(), nil)
	alpha := Labels{"tenant": "alpha", "queue": "Sharded-FAA"}
	if v, ok := s.Value("sbq_srv_submits_total", alpha); !ok || v != 100 {
		t.Fatalf("alpha submits = %v,%v want 100", v, ok)
	}
	if got := s.Sum("sbq_srv_submits_total"); got != 107 {
		t.Fatalf("Sum(submits) = %v, want 107", got)
	}
	if s.Types["sbq_srv_submits_total"] != "counter" {
		t.Fatalf("submits TYPE = %q", s.Types["sbq_srv_submits_total"])
	}
	if s.Types["sbq_lease_ns"] != "histogram" {
		t.Fatalf("lease TYPE = %q", s.Types["sbq_lease_ns"])
	}
	if v, ok := s.Value("sbq_lease_ns_count", alpha); !ok || v != 3 {
		t.Fatalf("lease count = %v,%v want 3", v, ok)
	}
	if v, ok := s.Value("sbq_lease_ns_sum", alpha); !ok || v != 1005 {
		t.Fatalf("lease sum = %v,%v want 1005", v, ok)
	}
	// le="0" catches the zero observation; le="7" catches 0 and 5.
	withLE := func(le string) Labels {
		l := Labels{"le": le}
		for k, v := range alpha {
			l[k] = v
		}
		return l
	}
	if v, _ := s.Value("sbq_lease_ns_bucket", withLE("0")); v != 1 {
		t.Fatalf("bucket le=0 = %v, want 1", v)
	}
	if v, _ := s.Value("sbq_lease_ns_bucket", withLE("7")); v != 2 {
		t.Fatalf("bucket le=7 = %v, want 2", v)
	}
	if v, _ := s.Value("sbq_lease_ns_bucket", withLE("+Inf")); v != 3 {
		t.Fatalf("bucket le=+Inf = %v, want 3", v)
	}
}

func TestWriteOmitsZeroSeries(t *testing.T) {
	a, _, snaps := testSources()
	a.Inc(obs.EnqOps)
	out := render(t, snaps(), nil)
	if !strings.Contains(out, "sbq_enq_ops_total") {
		t.Fatalf("live counter missing:\n%s", out)
	}
	for _, absent := range []string{"sbq_deq_ops_total", "sbq_ack_ns", "tenant=\"beta\""} {
		if strings.Contains(out, absent) {
			t.Fatalf("zero-valued %s leaked into output:\n%s", absent, out)
		}
	}
}

func TestWriteEscapesLabels(t *testing.T) {
	st := obs.New()
	st.Inc(obs.EnqOps)
	s := scrape(t, []LabeledSnapshot{{Labels: Labels{"tenant": "a\"b\\c\nd"}, Snap: st.Snapshot()}}, nil)
	if v, ok := s.Value("sbq_enq_ops_total", Labels{"tenant": "a\"b\\c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label did not round-trip: %v %v", v, ok)
	}
}

func TestHistogramBucketBoundsMatchStats(t *testing.T) {
	// Every value must land at-or-under its emitted inclusive bound.
	st := obs.New()
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 38} {
		st.Observe(obs.EnqLatency, v)
	}
	s := scrape(t, []LabeledSnapshot{{Snap: st.Snapshot()}}, nil)
	for _, v := range []uint64{0, 1, 3, 7, 1023} {
		le := uint64(1)<<uint(stats.BucketOf(v)) - 1
		got, ok := s.Value("sbq_enq_ns_bucket", Labels{"le": strings.TrimSpace(formatValue(float64(le)))})
		if !ok {
			t.Fatalf("no bucket for le=%d", le)
		}
		var want float64
		for _, x := range []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 38} {
			if x <= le {
				want++
			}
		}
		if got != want {
			t.Fatalf("cumulative at le=%d = %v, want %v", le, got, want)
		}
	}
}

func TestGauges(t *testing.T) {
	depth := func(v float64) []Sample {
		return []Sample{{Name: "sbqd_tenant_depth", Labels: Labels{"tenant": "a"}, Value: v}}
	}
	s := scrape(t, nil, depth(3))
	if v, ok := s.Value("sbqd_tenant_depth", Labels{"tenant": "a"}); !ok || v != 3 {
		t.Fatalf("gauge = %v,%v", v, ok)
	}
	s2 := scrape(t, nil, depth(1)) // gauges may go down; no monotonicity violation
	if viol := CheckMonotonic(s, s2); len(viol) != 0 {
		t.Fatalf("gauge decrease flagged as violation: %v", viol)
	}
}

func TestScrapeToScrapeMonotonic(t *testing.T) {
	a, b, snaps := testSources()
	a.Add(obs.SrvSubmits, 10)
	a.Observe(obs.AckLatency, 100)
	first := scrape(t, snaps(), nil)

	a.Add(obs.SrvSubmits, 5)
	b.Inc(obs.SrvSubmits) // new label set appearing is fine
	a.Observe(obs.AckLatency, 200)
	second := scrape(t, snaps(), nil)
	if viol := CheckMonotonic(first, second); len(viol) != 0 {
		t.Fatalf("unexpected violations: %v", viol)
	}
	// Reversed order must be detected.
	if viol := CheckMonotonic(second, first); len(viol) == 0 {
		t.Fatal("reversed scrapes produced no violations")
	}
}
