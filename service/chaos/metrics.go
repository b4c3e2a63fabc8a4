package chaos

import (
	"fmt"
	"net"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

// startAdmin binds Profile.MetricsAddr and serves the service's HTTP
// surface on it for the duration of the run — /metrics, /healthz,
// /readyz, /v1/stats and the rest. Requests resolve the service through
// the world per call, so the admin plane follows a mid-run restart to the
// new instance. It returns the bound address (useful with ":0") and a
// stop function.
func startAdmin(addr string, w *world) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("chaos: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.get().Handler().ServeHTTP(rw, r)
	})}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// metricsCrossCheck renders the harness's own recorder — which survives
// restarts and aggregates every service instance of the run — through the
// full exposition pipeline (Write → text format → Parse) and requires
// the scraped counters to agree with the ledger. A disagreement means the
// telemetry plane dropped or invented events somewhere between the
// instrumentation site and the scrape, which no amount of green delivery
// invariants excuses.
func metricsCrossCheck(st *obs.Stats, submitted, acked uint64) []Violation {
	var b strings.Builder
	snaps := []export.LabeledSnapshot{{Labels: export.Labels{"scope": "chaos"}, Snap: st.Snapshot()}}
	if err := export.Write(&b, snaps, nil); err != nil {
		return []Violation{{Kind: VMetrics, Detail: fmt.Sprintf("rendering exposition: %v", err)}}
	}
	sc, err := export.Parse(strings.NewReader(b.String()))
	if err != nil {
		return []Violation{{Kind: VMetrics, Detail: fmt.Sprintf("exposition does not parse: %v", err)}}
	}
	var out []Violation
	for _, c := range []struct {
		name string
		want uint64
	}{
		{export.CounterName(obs.SrvSubmits), submitted},
		{export.CounterName(obs.SrvAcks), acked},
	} {
		if got := sc.Sum(c.name); got != float64(c.want) {
			out = append(out, Violation{Kind: VMetrics,
				Detail: fmt.Sprintf("%s scraped %g, ledger counted %d", c.name, got, c.want)})
		}
	}
	return out
}
