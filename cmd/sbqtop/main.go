// Command sbqtop is a live terminal dashboard over a sbqd /metrics
// endpoint — top(1) for the job queue. It polls the Prometheus text
// exposition, diffs consecutive scrapes, and renders per-tenant depth and
// backpressure, submit/ack throughput, lease and ack latency quantiles
// (p50/p99/p999, straight from the exposition histograms), and the
// paper's hot-path failure signals: the CAS-failure and steal-miss
// percentages, computed from the exported counters over the interval
// since sbqtop's own previous scrape (lifetime totals on the first frame
// and under -once), so other scrapers of the same endpoint never move
// them.
//
//	sbqtop                                   poll localhost sbqd every 2s
//	sbqtop -url http://host:9091/metrics -interval 1s
//	sbqtop -once                             print one frame and exit
//
// Validate mode is the CI half: it checks two scrape files of the same
// target for exposition validity and scrape-to-scrape counter
// monotonicity, exiting nonzero on any violation:
//
//	sbqtop -validate first.prom second.prom
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/service"
)

func main() {
	fs := flag.NewFlagSet("sbqtop", flag.ExitOnError)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080/metrics", "sbqd metrics endpoint to poll")
		interval = fs.Duration("interval", 2*time.Second, "poll interval")
		once     = fs.Bool("once", false, "print a single frame and exit (no screen clearing)")
		validate = fs.Bool("validate", false, "validate two scrape files (args: first.prom second.prom) and exit")
	)
	fs.Parse(os.Args[1:])

	if *validate {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "sbqtop: -validate needs exactly two scrape files (taken in order)")
			os.Exit(2)
		}
		os.Exit(validateFiles(os.Stdout, fs.Arg(0), fs.Arg(1)))
	}
	os.Exit(watch(*url, *interval, *once))
}

// validateFiles parses both scrapes strictly and checks counter/histogram
// monotonicity from first to second.
func validateFiles(w io.Writer, first, second string) int {
	scrapes := make([]*export.Scrape, 2)
	for i, path := range []string{first, second} {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(w, "sbqtop: %v\n", err)
			return 1
		}
		sc, err := export.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(w, "sbqtop: %s: invalid exposition: %v\n", path, err)
			return 1
		}
		scrapes[i] = sc
	}
	if vs := export.CheckMonotonic(scrapes[0], scrapes[1]); len(vs) > 0 {
		fmt.Fprintf(w, "sbqtop: %d monotonicity violations %s -> %s:\n", len(vs), first, second)
		for _, v := range vs {
			fmt.Fprintf(w, "  %s\n", v)
		}
		return 1
	}
	fmt.Fprintf(w, "sbqtop: ok: %d then %d samples, counters monotonic\n",
		len(scrapes[0].Points), len(scrapes[1].Points))
	return 0
}

func watch(url string, interval time.Duration, once bool) int {
	var prev *export.Scrape
	var prevT time.Time
	for {
		cur, err := fetch(url)
		now := time.Now()
		if err != nil {
			if once {
				fmt.Fprintf(os.Stderr, "sbqtop: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "sbqtop: %v (retrying in %s)\n", err, interval)
		} else {
			if !once {
				fmt.Print("\x1b[H\x1b[2J") // home + clear
			}
			render(os.Stdout, cur, prev, now.Sub(prevT), url)
			prev, prevT = cur, now
		}
		if once {
			return 0
		}
		time.Sleep(interval)
	}
}

func fetch(url string) (*export.Scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc, err := export.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: bad exposition: %w", url, err)
	}
	return sc, nil
}

// tenantRow is one tenant's frame state, assembled from the scrape.
type tenantRow struct {
	name, queue string
}

// tenants lists the scrape's tenants with their current queue backend,
// discovered from the always-exported depth gauge.
func tenants(sc *export.Scrape) []tenantRow {
	var rows []tenantRow
	for _, p := range sc.Points {
		if p.Name == service.MetricTenantDepth {
			rows = append(rows, tenantRow{name: p.Labels["tenant"], queue: p.Labels["queue"]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// render writes one dashboard frame. prev may be nil (first frame: rates
// show as "-", percentages cover the lifetime totals); dt is the time
// since prev was scraped.
func render(w io.Writer, cur, prev *export.Scrape, dt time.Duration, source string) {
	ready, _ := cur.Value(service.MetricReady, nil)
	inflight, _ := cur.Value(service.MetricInFlight, nil)
	nTenants, _ := cur.Value(service.MetricTenants, nil)

	state := "READY"
	if ready != 1 {
		state = "NOT READY"
	}
	fmt.Fprintf(w, "sbqtop %s — %s  tenants=%.0f  inflight-leases=%.0f\n\n",
		source, state, nTenants, inflight)

	rows := tenants(cur)
	if len(rows) == 0 {
		fmt.Fprintln(w, "no tenants yet (depth gauges absent)")
		return
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "TENANT\tQUEUE\tDEPTH\tQUEUED\tLEASED\tDELAYED\tDEAD\tSUB/s\tACK/s\t")
	for _, t := range rows {
		sel := export.Labels{"tenant": t.name, "queue": t.queue}
		g := func(name string) string {
			v, ok := cur.Value(name, sel)
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			t.name, t.queue,
			g(service.MetricTenantDepth), g(service.MetricTenantQueued),
			g(service.MetricTenantLeased), g(service.MetricTenantDelayed),
			g(service.MetricTenantDead),
			rate(cur, prev, export.CounterName(obs.SrvSubmits), t.name, dt),
			rate(cur, prev, export.CounterName(obs.SrvAcks), t.name, dt))
	}
	tw.Flush()

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "TENANT\tLEASE ms p50/p99/p999\tACK ms p50/p99/p999\tCAS-FAIL%\tSTEAL-MISS%\t")
	for _, t := range rows {
		sel := export.Labels{"tenant": t.name}
		d := func(c obs.Counter) float64 {
			v, _ := delta(cur, prev, export.CounterName(c), sel) // absent: 0
			return v
		}
		misses := d(obs.DeqStealMisses)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n",
			t.name,
			quantiles(cur, export.SeriesName(obs.LeaseLatency), sel),
			quantiles(cur, export.SeriesName(obs.AckLatency), sel),
			percent(d(obs.CASFailures), d(obs.CASAttempts)),
			percent(misses, d(obs.DeqSteals)+misses))
	}
	tw.Flush()
}

// rate renders the per-second delta of counter name for one tenant, "-"
// on the first frame or when the counter has not appeared yet.
func rate(cur, prev *export.Scrape, name, tenant string, dt time.Duration) string {
	if prev == nil || dt <= 0 {
		return "-"
	}
	d, ok := delta(cur, prev, name, export.Labels{"tenant": tenant})
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f", d/dt.Seconds())
}

// delta returns how far counter name of the series sel rose since prev,
// or its total when prev is nil, and whether cur carries the series. A
// series absent from prev counts from 0 (the writer omits zero counters).
func delta(cur, prev *export.Scrape, name string, sel export.Labels) (float64, bool) {
	c, ok := cur.Value(name, sel)
	if prev != nil {
		p, _ := prev.Value(name, sel)
		c -= p
	}
	return c, ok
}

// quantiles renders "p50/p99/p999" of histogram name in milliseconds.
func quantiles(sc *export.Scrape, name string, sel export.Labels) string {
	var parts [3]string
	for i, q := range []float64{0.50, 0.99, 0.999} {
		v, ok := sc.Quantile(name, sel, q)
		if !ok {
			return "-"
		}
		parts[i] = fmt.Sprintf("%.1f", v/1e6)
	}
	return strings.Join(parts[:], "/")
}

// percent renders 100·num/den, "-" when den is 0 (or negative: the
// target restarted between scrapes).
func percent(num, den float64) string {
	if den <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*num/den)
}
