package service

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/obs/export"
)

// Gauge names the service's /metrics page emits alongside the exported
// obs counters and histograms. sbqtop and the CI metrics-smoke job select
// on these; keep them stable.
const (
	MetricReady    = "sbq_ready"           // 1 while serving, else 0
	MetricInFlight = "sbq_inflight_leases" // outstanding lease tokens
	MetricTenants  = "sbq_tenants"         // live tenant count

	// Per-tenant depth breakdown, labels {tenant, queue}. Gauges on
	// purpose: depth falls as jobs settle, and the queue label follows the
	// tenant's current backend across SwapBackend (counters never carry
	// the queue label precisely because it can change mid-run, which would
	// break scrape-to-scrape monotonicity).
	MetricTenantDepth   = "sbq_tenant_depth"
	MetricTenantQueued  = "sbq_tenant_queued"
	MetricTenantLeased  = "sbq_tenant_leased"
	MetricTenantDelayed = "sbq_tenant_delayed"
	MetricTenantDead    = "sbq_tenant_dead"
)

// Ready reports whether the service is accepting new work. It is the
// GET /readyz predicate: false from the moment Shutdown flips the drain
// fence (and trivially true only after New has finished restoring any
// checkpoint, since New returns the *Service).
func (s *Service) Ready() bool { return s.state.Load() == srvServing }

// MetricsHandler returns the GET /metrics handler (Prometheus text
// exposition 0.0.4). Each request renders, with export.Write:
//
//   - per-tenant counter and histogram snapshots, label {tenant} — the
//     service lifecycle counters plus the tenant's queue counters, which
//     the tenant scope sums from its shard scopes (see tenant.stats);
//   - per-shard queue snapshots, labels {tenant, shard} — the paper's
//     CAS-failure and retry signals at the granularity they occur;
//   - depth/readiness gauges, labels {tenant, queue} (see Metric*).
//
// A scrape reads the recorder state and keeps nothing, so two scrapes of
// the same state are byte-identical and concurrent scrapes need no lock:
// the tenant map is immutable, shard scopes sit behind an atomic pointer,
// and Stats locks what it reads.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b bytes.Buffer
		snaps := append(s.tenantSnapshots(), s.shardSnapshots()...)
		if err := export.Write(&b, snaps, s.gaugeSamples()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", export.ContentType)
		_, _ = w.Write(b.Bytes())
	})
}

// tenantList snapshots the tenant table, sorted by name for stable
// exposition and stats ordering.
func (s *Service) tenantList() []*tenant {
	m := s.tenantMap()
	out := make([]*tenant, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (s *Service) tenantSnapshots() []export.LabeledSnapshot {
	var out []export.LabeledSnapshot
	for _, t := range s.tenantList() {
		out = append(out, export.LabeledSnapshot{
			Labels: export.Labels{"tenant": t.name},
			Snap:   t.stats.Snapshot(),
		})
	}
	return out
}

func (s *Service) shardSnapshots() []export.LabeledSnapshot {
	var out []export.LabeledSnapshot
	for _, t := range s.tenantList() {
		for i, st := range t.shardStatsList() {
			out = append(out, export.LabeledSnapshot{
				Labels: export.Labels{"tenant": t.name, "shard": strconv.Itoa(i)},
				Snap:   st.Snapshot(),
			})
		}
	}
	return out
}

func (s *Service) gaugeSamples() []export.Sample {
	st := s.Stats()
	ready := 0.0
	if st.State == "serving" {
		ready = 1
	}
	out := []export.Sample{
		{Name: MetricReady, Value: ready},
		{Name: MetricInFlight, Value: float64(st.InFlight)},
		{Name: MetricTenants, Value: float64(len(st.Tenants))},
	}
	for _, ts := range st.Tenants {
		l := export.Labels{"tenant": ts.Tenant, "queue": ts.Queue}
		out = append(out,
			export.Sample{Name: MetricTenantDepth, Labels: l, Value: float64(ts.Depth)},
			export.Sample{Name: MetricTenantQueued, Labels: l, Value: float64(ts.Queued)},
			export.Sample{Name: MetricTenantLeased, Labels: l, Value: float64(ts.Leased)},
			export.Sample{Name: MetricTenantDelayed, Labels: l, Value: float64(ts.Delayed)},
			export.Sample{Name: MetricTenantDead, Labels: l, Value: float64(ts.Dead)},
		)
	}
	return out
}
