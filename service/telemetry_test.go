package service_test

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/trace"
	"repro/service"
)

func scrapeMetrics(t *testing.T, h http.Handler) *export.Scrape {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != export.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, export.ContentType)
	}
	sc, err := export.Parse(rr.Body)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sc
}

func mustValue(t *testing.T, sc *export.Scrape, name string, labels export.Labels) float64 {
	t.Helper()
	v, ok := sc.Value(name, labels)
	if !ok {
		t.Fatalf("metric %s%v missing", name, labels)
	}
	return v
}

func TestMetricsExposition(t *testing.T) {
	s := mustService(t, service.Config{Shards: 2, Lanes: 2})
	defer s.Shutdown(context.Background())

	for i := 0; i < 5; i++ {
		if _, err := s.Submit("a", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit("b", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		l, ok, err := s.Lease("a")
		if err != nil || !ok {
			t.Fatalf("Lease a: ok=%v err=%v", ok, err)
		}
		if err := s.Ack(l.Token); err != nil {
			t.Fatal(err)
		}
	}
	l, ok, err := s.Lease("b")
	if err != nil || !ok {
		t.Fatalf("Lease b: ok=%v err=%v", ok, err)
	}
	if err := s.Nack(l.Token); err != nil {
		t.Fatal(err)
	}

	h := s.Handler()
	sc := scrapeMetrics(t, h)

	// Per-tenant lifecycle counters.
	if v := mustValue(t, sc, "sbq_srv_submits_total", export.Labels{"tenant": "a"}); v != 5 {
		t.Fatalf("submits{tenant=a} = %g, want 5", v)
	}
	if v := mustValue(t, sc, "sbq_srv_submits_total", export.Labels{"tenant": "b"}); v != 3 {
		t.Fatalf("submits{tenant=b} = %g, want 3", v)
	}
	if v := mustValue(t, sc, "sbq_srv_acks_total", export.Labels{"tenant": "a"}); v != 2 {
		t.Fatalf("acks{tenant=a} = %g, want 2", v)
	}
	if v := mustValue(t, sc, "sbq_srv_nacks_total", export.Labels{"tenant": "b"}); v != 1 {
		t.Fatalf("nacks{tenant=b} = %g, want 1", v)
	}

	// Ack latency histogram per tenant.
	if _, ok := sc.Quantile("sbq_ack_ns", export.Labels{"tenant": "a"}, 0.5); !ok {
		t.Fatal("no ack latency histogram for tenant a")
	}

	// Per-shard queue counters: shard-labeled enq ops must exist and sum to
	// the tenant-scope value (the tenant scope sums its shards).
	var shardSum float64
	shardPoints := 0
	for _, p := range sc.Points {
		if p.Name == "sbq_enq_ops_total" && p.Labels["tenant"] == "a" && p.Labels["shard"] != "" {
			shardSum += p.Value
			shardPoints++
		}
	}
	if shardPoints == 0 {
		t.Fatal("no shard-labeled enq_ops points for tenant a")
	}
	tenantEnq := mustValue(t, sc, "sbq_enq_ops_total", export.Labels{"tenant": "a"})
	if shardSum != tenantEnq {
		t.Fatalf("shard enq_ops sum = %g, tenant scope = %g", shardSum, tenantEnq)
	}

	// Gauges: readiness and the per-tenant depth breakdown, labeled with
	// the tenant's current backend.
	if v := mustValue(t, sc, service.MetricReady, nil); v != 1 {
		t.Fatalf("ready = %g, want 1", v)
	}
	depthLabels := export.Labels{"tenant": "a", "queue": service.DefaultQueue}
	if v := mustValue(t, sc, service.MetricTenantDepth, depthLabels); v != 3 {
		t.Fatalf("depth{a} = %g, want 3 (5 submitted - 2 acked)", v)
	}

	// A second scrape after more work must be monotonic w.r.t. the first.
	if _, err := s.Submit("a", nil); err != nil {
		t.Fatal(err)
	}
	sc2 := scrapeMetrics(t, h)
	if v := export.CheckMonotonic(sc, sc2); len(v) != 0 {
		t.Fatalf("scrape-to-scrape monotonicity violations: %v", v)
	}
	if v := mustValue(t, sc2, "sbq_srv_submits_total", export.Labels{"tenant": "a"}); v != 6 {
		t.Fatalf("submits{tenant=a} after second scrape = %g, want 6", v)
	}
}

// TestMetricsRenderIdentical renders /metrics twice with no call in
// between, on a tenant whose SBQ-CAS queue has counted linking CASes: a
// scrape is a pure function of the recorder state, so the two pages are
// byte-identical. Both are served with status 200 and the exposition
// Content-Type, and parse.
func TestMetricsRenderIdentical(t *testing.T) {
	s := mustService(t, service.Config{Queue: "SBQ-CAS"})
	defer s.Shutdown(context.Background())
	for i := 0; i < 4; i++ {
		if _, err := s.Submit("a", nil); err != nil {
			t.Fatal(err)
		}
	}
	l, ok, err := s.Lease("a")
	if err != nil || !ok {
		t.Fatalf("Lease: ok=%v err=%v", ok, err)
	}
	if err := s.Ack(l.Token); err != nil {
		t.Fatal(err)
	}

	h := s.MetricsHandler()
	var pages [2]string
	for i := range pages {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != export.ContentType {
			t.Fatalf("Content-Type = %q, want %q", ct, export.ContentType)
		}
		pages[i] = rr.Body.String()
	}
	sc, err := export.Parse(strings.NewReader(pages[0]))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v := mustValue(t, sc, export.CounterName(obs.CASAttempts), export.Labels{"tenant": "a"}); v == 0 {
		t.Fatal("tenant a counted no linking CAS")
	}
	if pages[0] != pages[1] {
		t.Fatalf("two scrapes of one state differ:\n%s\n---\n%s", pages[0], pages[1])
	}
}

// TestMetricsConcurrentScrapes renders /metrics from 4 goroutines while 2
// others run Submit/Lease/Ack on two tenants. Scrapes take no lock, so
// the race detector checks that every source they read is safe to read
// concurrently; every page must parse, and each scraper's consecutive
// pages must be monotonic.
func TestMetricsConcurrentScrapes(t *testing.T) {
	s := mustService(t, service.Config{Shards: 2})
	defer s.Shutdown(context.Background())
	h := s.MetricsHandler()
	const scrapers, pages = 4, 20

	stop := make(chan struct{})
	var workers sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		workers.Add(1)
		go func(tenant string) {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Submit(tenant, nil); err != nil {
					t.Errorf("Submit %s: %v", tenant, err)
					return
				}
				l, ok, err := s.Lease(tenant)
				if err != nil || !ok {
					t.Errorf("Lease %s: ok=%v err=%v", tenant, ok, err)
					return
				}
				if err := s.Ack(l.Token); err != nil {
					t.Errorf("Ack %s: %v", tenant, err)
					return
				}
			}
		}(tenant)
	}

	var readers sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev *export.Scrape
			for j := 0; j < pages; j++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
				sc, err := export.Parse(rr.Body)
				if err != nil {
					t.Errorf("page %d does not parse: %v", j, err)
					return
				}
				if prev != nil {
					if v := export.CheckMonotonic(prev, sc); len(v) != 0 {
						t.Errorf("page %d: monotonicity violations: %v", j, v)
						return
					}
				}
				prev = sc
			}
		}()
	}
	readers.Wait()
	close(stop)
	workers.Wait()
}

func TestMetricsTenantScopesSumToGlobal(t *testing.T) {
	s := mustService(t, service.Config{})
	defer s.Shutdown(context.Background())
	for _, tenant := range []string{"a", "b", "c"} {
		for i := 0; i < 4; i++ {
			if _, err := s.Submit(tenant, nil); err != nil {
				t.Fatal(err)
			}
		}
		l, ok, err := s.Lease(tenant)
		if err != nil || !ok {
			t.Fatalf("Lease %s: ok=%v err=%v", tenant, ok, err)
		}
		if err := s.Ack(l.Token); err != nil {
			t.Fatal(err)
		}
	}
	sc := scrapeMetrics(t, s.Handler())
	global := s.Stats()
	if global.Submits != 12 || global.Acks != 3 {
		t.Fatalf("global submits=%d acks=%d, want 12 and 3 (each event recorded once)", global.Submits, global.Acks)
	}
	if got := sc.Sum("sbq_srv_submits_total"); got != float64(global.Submits) {
		t.Fatalf("sum of tenant submits = %g, global = %d", got, global.Submits)
	}
	if got := sc.Sum("sbq_srv_acks_total"); got != float64(global.Acks) {
		t.Fatalf("sum of tenant acks = %g, global = %d", got, global.Acks)
	}
}

// TestStatsUnderFlightRecorder runs cycles with a root Stats that carries
// a flight recorder as Config.Recorder: Stats and the root count each
// event once, and the flight recorder sees every queue event.
func TestStatsUnderFlightRecorder(t *testing.T) {
	col := trace.New()
	st := obs.NewWithEvents(col)
	s := mustService(t, service.Config{Recorder: st})
	defer s.Shutdown(context.Background())
	const cycles = 10
	for i := 0; i < cycles; i++ {
		if _, err := s.Submit("a", nil); err != nil {
			t.Fatal(err)
		}
		l, ok, err := s.Lease("a")
		if err != nil || !ok {
			t.Fatalf("Lease: ok=%v err=%v", ok, err)
		}
		if err := s.Ack(l.Token); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats(); got.Submits != cycles || got.Acks != cycles {
		t.Fatalf("Stats submits=%d acks=%d, want %d each", got.Submits, got.Acks, cycles)
	}
	snap := st.Snapshot()
	for _, c := range []obs.Counter{obs.SrvSubmits, obs.EnqOps, obs.SrvAcks} {
		if got := snap.Counter(c); got != cycles {
			t.Errorf("recorder %s = %d, want %d", c, got, cycles)
		}
	}
	events := map[obs.EventKind]int{}
	for _, e := range col.Snapshot().Events {
		events[e.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvEnqStart, obs.EvSrvSubmit, obs.EvSrvAck} {
		if events[k] != cycles {
			t.Errorf("recorder holds %d %s events, want %d", events[k], k, cycles)
		}
	}
}

// TestStatsPerStateCounts pins the per-tenant state breakdown in Stats and
// on the /metrics page against a fixed mix built on a fake clock: on tenant
// a, one acked job, two dead-lettered, three delayed by a nonzero backoff,
// four leased and five queued; on tenant b, one leased and two queued.
func TestStatsPerStateCounts(t *testing.T) {
	clk := newFakeClock()
	s := mustService(t, service.Config{
		Now:      clk.Now,
		LeaseTTL: time.Hour,
		// Attempt 1 is delayed 10 units, attempt 2 dead-letters.
		Backoff:     policy.AbortBudget{Budget: 2, Inner: policy.DelayedCAS{Delay: 10}},
		BackoffUnit: time.Second,
	})
	defer func() {
		// The leases never expire on the fake clock: force the drain.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Shutdown(ctx)
	}()
	submit := func(tenant string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Submit(tenant, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	lease := func(tenant string, n int) []uint64 {
		t.Helper()
		var tokens []uint64
		for i := 0; i < n; i++ {
			l, ok, err := s.Lease(tenant)
			if err != nil || !ok {
				t.Fatalf("Lease %s: ok=%v err=%v", tenant, ok, err)
			}
			tokens = append(tokens, l.Token)
		}
		return tokens
	}
	nack := func(tokens []uint64) {
		t.Helper()
		for _, tok := range tokens {
			if err := s.Nack(tok); err != nil {
				t.Fatal(err)
			}
		}
	}

	submit("a", 1)
	if err := s.Ack(lease("a", 1)[0]); err != nil {
		t.Fatal(err)
	}
	submit("a", 2)
	nack(lease("a", 2)) // delayed 10s
	clk.Advance(11 * time.Second)
	s.ScanOnce(clk.Now()) // back in the queue
	nack(lease("a", 2))   // second attempt: dead
	submit("a", 3)
	nack(lease("a", 3)) // delayed
	submit("a", 4)
	lease("a", 4)
	submit("a", 5)
	submit("b", 3)
	lease("b", 1)

	type counts struct {
		depth                         int64
		queued, leased, delayed, dead int
	}
	want := map[string]counts{
		"a": {depth: 12, queued: 5, leased: 4, delayed: 3, dead: 2},
		"b": {depth: 3, queued: 2, leased: 1},
	}
	st := s.Stats()
	if st.InFlight != 5 {
		t.Errorf("InFlight = %d, want 5", st.InFlight)
	}
	if len(st.Tenants) != len(want) {
		t.Fatalf("Stats lists %d tenants, want %d", len(st.Tenants), len(want))
	}
	for _, ts := range st.Tenants {
		got := counts{ts.Depth, ts.Queued, ts.Leased, ts.Delayed, ts.Dead}
		if got != want[ts.Tenant] {
			t.Errorf("Stats tenant %s: %+v, want %+v", ts.Tenant, got, want[ts.Tenant])
		}
	}

	sc := scrapeMetrics(t, s.Handler())
	for tenant, w := range want {
		l := export.Labels{"tenant": tenant, "queue": service.DefaultQueue}
		for name, v := range map[string]float64{
			service.MetricTenantDepth:   float64(w.depth),
			service.MetricTenantQueued:  float64(w.queued),
			service.MetricTenantLeased:  float64(w.leased),
			service.MetricTenantDelayed: float64(w.delayed),
			service.MetricTenantDead:    float64(w.dead),
		} {
			if got := mustValue(t, sc, name, l); got != v {
				t.Errorf("%s{tenant=%s} = %g, want %g", name, tenant, got, v)
			}
		}
	}
	if got := mustValue(t, sc, service.MetricInFlight, nil); got != 5 {
		t.Errorf("%s = %g, want 5", service.MetricInFlight, got)
	}
}

func TestReadyzTransitions(t *testing.T) {
	s := mustService(t, service.Config{})
	h := s.Handler()

	get := func(path string) int {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("GET /readyz while serving = %d", c)
	}
	if !s.Ready() {
		t.Fatal("Ready() false while serving")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz after shutdown = %d", c)
	}
	if c := get("/healthz"); c != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz after shutdown = %d", c)
	}
	if s.Ready() {
		t.Fatal("Ready() true after shutdown")
	}
}

func TestLogSampling(t *testing.T) {
	var buf bytes.Buffer
	s := mustService(t, service.Config{
		Logger:      slog.New(slog.NewTextHandler(&buf, nil)),
		LogEvery:    3,
		MaxInFlight: 10,
	})
	defer s.Shutdown(context.Background())

	for i := 0; i < 7; i++ {
		if _, err := s.Submit("a", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow the quota: rejects are never sampled.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit("a", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("a", nil); err == nil {
			t.Fatal("Submit over quota succeeded")
		}
	}

	count := func(msg string) int {
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "msg="+msg) {
				n++
			}
		}
		return n
	}
	// 10 accepted submits at 1-in-3 → occurrences 1, 4, 7, 10.
	if got := count("submit"); got != 4 {
		t.Fatalf("sampled submit records = %d, want 4\n%s", got, buf.String())
	}
	if got := count(`"backpressure reject"`); got != 2 {
		t.Fatalf("reject records = %d, want 2\n%s", got, buf.String())
	}
}
