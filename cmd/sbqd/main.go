// Command sbqd is the job-queue daemon: repro/service behind an HTTP
// front-end, with a chaos mode for CI and soak testing.
//
// Serve mode (default) runs until SIGINT/SIGTERM, then drains gracefully:
//
//	sbqd -addr :8080 -queue Sharded-FAA -lease-ttl 30s -snapshot /var/lib/sbqd/checkpoint.json
//
// The service surface (see service.Handler) includes GET /metrics
// (Prometheus text 0.0.4), /healthz, and /readyz. -admin-addr binds those
// on a second listener together with the Go diagnostics — /debug/pprof/*
// and /debug/vars — so the operational plane can stay off the job API's
// port. -log/-log-level/-log-every control the structured lifecycle log.
//
// Chaos mode runs the in-process fault-injection harness instead of
// serving, prints the report, and exits nonzero on any invariant
// violation; -metrics-addr exposes the run to live scrapers (sbqtop, the
// CI metrics-smoke job):
//
//	sbqd -chaos -profile short -trace-out trace.json -metrics-addr 127.0.0.1:9091
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflag"
	"repro/queue/registry"
	"repro/service"
	"repro/service/chaos"
)

func main() {
	fs := flag.NewFlagSet("sbqd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address (serve mode)")
		adminAddr   = fs.String("admin-addr", "", "separate admin listen address for /metrics, /healthz, /readyz, /debug/pprof, /debug/vars (\"\" = none)")
		queueName   = fs.String("queue", service.DefaultQueue, "registry queue entry backing each tenant")
		shards      = fs.Int("shards", 0, "shard count (0 = the entry's default)")
		lanes       = fs.Int("lanes", 0, "producer lanes per tenant (0 = default)")
		retryBudget = fs.Int("retry-budget", 0, "delivery attempts before dead-lettering (0 = default)")
		maxInFlight = fs.Int64("max-inflight", 0, "per-tenant depth quota (0 = default, negative = unlimited)")
		maxTenants  = fs.Int("max-tenants", 0, "cap on auto-created tenants (0 = default, negative = unlimited)")
		snapshot    = fs.String("snapshot", "", "checkpoint path for graceful shutdown + restore")
		seed        = fs.Uint64("seed", 0, "backoff jitter seed (0 = default)")

		chaosMode   = fs.Bool("chaos", false, "run the chaos harness instead of serving")
		profile     = fs.String("profile", "short", "chaos profile: short or standard")
		traceOut    = fs.String("trace-out", "", "chaos: write a Chrome trace here")
		swapTo      = fs.String("swap-to", "", "chaos: override the mid-run swap target entry (\"none\" disables)")
		restart     = fs.Bool("restart", true, "chaos: run the mid-run restart scenario (off keeps counters scrape-monotonic)")
		duration    = fs.Duration("duration", 0, "chaos: override the profile's submit-phase length (0 = profile default)")
		metricsAddr = fs.String("metrics-addr", "", "chaos: admin listener for live /metrics scraping (\":0\" picks a port)")
	)
	timings := cliflag.ServiceTimings(fs, cliflag.Timings{
		LeaseTTL:     30 * time.Second,
		DrainTimeout: 10 * time.Second,
	})
	logCfg := cliflag.LogFlags(fs, cliflag.LogConfig{Format: "text", Level: "info", Every: 100})
	fs.Parse(os.Args[1:])

	if _, ok := registry.OrderingOf(*queueName); !ok {
		fmt.Fprintf(os.Stderr, "sbqd: unknown queue %q (have %v)\n", *queueName, registry.Names())
		os.Exit(2)
	}

	if *chaosMode {
		os.Exit(runChaos(chaosOpts{
			profile: *profile, queue: *queueName, swapTo: *swapTo,
			traceOut: *traceOut, seed: *seed, restart: *restart,
			duration: *duration, metricsAddr: *metricsAddr,
		}, timings))
	}
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbqd: %v\n", err)
		os.Exit(2)
	}
	os.Exit(serve(*addr, *adminAddr, service.Config{
		Queue:        *queueName,
		Shards:       *shards,
		Lanes:        *lanes,
		LeaseTTL:     timings.LeaseTTL,
		ScanInterval: timings.ScanInterval,
		RetryBudget:  *retryBudget,
		MaxInFlight:  *maxInFlight,
		MaxTenants:   *maxTenants,
		SnapshotPath: *snapshot,
		Seed:         *seed,
		Logger:       logger,
		LogEvery:     logCfg.Every,
	}, timings.DrainTimeout))
}

// adminHandler is the operational surface served on -admin-addr: the
// service's own health/metrics routes plus the Go runtime diagnostics.
// The job API (POST /v1/*) deliberately stays off this mux, so the admin
// port can be firewalled separately from the data plane.
func adminHandler(svc *service.Service) http.Handler {
	mux := http.NewServeMux()
	sh := svc.Handler()
	mux.Handle("GET /metrics", sh)
	mux.Handle("GET /healthz", sh)
	mux.Handle("GET /readyz", sh)
	mux.Handle("GET /v1/stats", sh)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func serve(addr, adminAddr string, cfg service.Config, drainTimeout time.Duration) int {
	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbqd: %v\n", err)
		return 1
	}
	srv := &http.Server{Addr: addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if adminAddr != "" {
		admin := &http.Server{Addr: adminAddr, Handler: adminHandler(svc)}
		go func() {
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sbqd: admin: %v\n", err)
			}
		}()
		defer admin.Close()
		fmt.Fprintf(os.Stderr, "sbqd: admin plane on %s (/metrics, /debug/pprof, /debug/vars)\n", adminAddr)
	}
	fmt.Fprintf(os.Stderr, "sbqd: serving on %s (queue=%s lease-ttl=%s)\n",
		addr, cfg.Queue, cfg.LeaseTTL)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "sbqd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "sbqd: draining...")

	// Drain the service first (workers keep settling over HTTP while it
	// drains), then close the listener.
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "sbqd: drain: %v (unsettled work checkpointed)\n", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer hcancel()
	_ = srv.Shutdown(hctx)
	fmt.Fprintln(os.Stderr, "sbqd: stopped")
	return 0
}

// chaosOpts carries the chaos-mode flag values into runChaos.
type chaosOpts struct {
	profile, queue, swapTo, traceOut, metricsAddr string
	seed                                          uint64
	restart                                       bool
	duration                                      time.Duration
}

func runChaos(o chaosOpts, t *cliflag.Timings) int {
	var p chaos.Profile
	switch o.profile {
	case "short":
		p = chaos.ShortProfile()
	case "standard":
		p = chaos.StandardProfile()
	default:
		fmt.Fprintf(os.Stderr, "sbqd: unknown chaos profile %q (have short, standard)\n", o.profile)
		return 2
	}
	p.Queue = o.queue
	p.TraceOut = o.traceOut
	p.Restart = o.restart
	p.MetricsAddr = o.metricsAddr
	if o.duration > 0 {
		p.Duration = o.duration
	}
	if o.seed != 0 {
		p.Seed = o.seed
	}
	switch o.swapTo {
	case "":
	case "none":
		p.SwapTo = ""
	default:
		p.SwapTo = o.swapTo
	}
	// Flag defaults are serve-shaped (30s TTL, 10s drain); values moved
	// off the default override the profile's own timings.
	if t.LeaseTTL != 30*time.Second {
		p.LeaseTTL = t.LeaseTTL
	}
	if t.DrainTimeout != 10*time.Second {
		p.DrainTimeout = t.DrainTimeout
	}

	rep, err := chaos.Run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbqd: chaos: %v\n", err)
		return 1
	}
	fmt.Println(rep)
	if !rep.Ok() {
		return 1
	}
	return 0
}
