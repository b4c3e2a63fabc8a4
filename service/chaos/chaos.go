// Package chaos is the in-process fault-injection harness for the job-queue
// service (repro/service): thousands of simulated open-loop clients with
// bursty, diurnal arrivals drive a Service while the harness injects the
// failures the service claims to survive — workers crashing mid-lease, slow
// consumers holding leases past their TTL, forced lease expiry, a mid-run
// backend swap (the service-level analogue of switching HTM off and living
// on the fallback path), and a full shutdown/restart through the JSON
// checkpoint.
//
// Throughout, a ledger (see check.go) audits the delivery contract in the
// aspect-oriented style of repro/internal/linearize: at-least-once delivery
// (nothing accepted is lost), exactly-once settlement (no job acked twice),
// no phantom deliveries, and a bounded final drain. Tail latency (p50, p99,
// p999 of submit→first-delivery and submit→ack) comes from the obs
// histograms; with Profile.TraceOut set, the flight recorder captures the
// run as a Chrome trace.
package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/service"
)

// Profile parameterizes one chaos run.
type Profile struct {
	Name     string
	Duration time.Duration // submit-phase length; drain follows

	Clients int // open-loop producer goroutines
	Workers int // consumer goroutines
	Tenants int

	Queue  string // initial registry entry for every tenant
	SwapTo string // entry to swap every tenant to mid-run ("" = no swap)
	Shards int

	LeaseTTL    time.Duration
	MeanGap     time.Duration // per-client mean inter-submit gap
	BurstEvery  int           // every n-th arrival opens a burst (0 = off)
	BurstLen    int
	MaxInFlight int64

	CrashProb float64 // worker takes the lease and vanishes
	SlowProb  float64 // worker holds the lease past its TTL, then tries to ack
	NackProb  float64 // worker nacks

	RetryBudget      int
	ForceExpiryEvery time.Duration // period of forced lease expiry (ForceExpire; 0 = off)
	Restart          bool          // shutdown + checkpoint + restore mid-run

	DrainTimeout time.Duration
	Seed         uint64

	TraceOut string // Chrome trace path ("" = no trace)
	// TraceRing is the flight-recorder ring capacity in events (0 = 1<<18
	// when TraceOut is set). Job-span reconstruction needs every EvSrv*
	// event of the run; the default library ring (1<<14) drops under chaos
	// load, so the harness sizes it for drop-free capture.
	TraceRing   int
	SnapshotDir string // checkpoint dir ("" = a fresh temp dir)
	// MetricsAddr, when non-empty, binds an admin listener for the run
	// serving the service's HTTP surface — GET /metrics, /healthz,
	// /readyz, /v1/stats — so an external scraper (CI's metrics-smoke job,
	// sbqtop) can watch the run live. ":0" picks a free port; the bound
	// address is in Report.MetricsAddr.
	MetricsAddr string
}

// ShortProfile is the CI shape: a few hundred milliseconds of load with
// every scenario on, sized to finish in seconds under -race.
func ShortProfile() Profile {
	return Profile{
		Name:     "short",
		Duration: 400 * time.Millisecond,
		Clients:  1000, Workers: 16, Tenants: 3,
		Queue: "Sharded-FAA", SwapTo: "Sharded-SBQ",
		LeaseTTL:   50 * time.Millisecond,
		MeanGap:    50 * time.Millisecond,
		BurstEvery: 7, BurstLen: 4,
		MaxInFlight: 1 << 14,
		CrashProb:   0.03, SlowProb: 0.01, NackProb: 0.05,
		RetryBudget:      4,
		ForceExpiryEvery: 60 * time.Millisecond,
		Restart:          true,
		DrainTimeout:     10 * time.Second,
		Seed:             1,
	}
}

// StandardProfile is the longer soak: more clients, more tenants, the same
// scenario mix.
func StandardProfile() Profile {
	p := ShortProfile()
	p.Name = "standard"
	p.Duration = 2 * time.Second
	p.Clients, p.Workers, p.Tenants = 4000, 32, 8
	p.DrainTimeout = 30 * time.Second
	return p
}

func (p Profile) withDefaults() Profile {
	if p.Name == "" {
		p.Name = "custom"
	}
	if p.Duration <= 0 {
		p.Duration = 400 * time.Millisecond
	}
	if p.Clients <= 0 {
		p.Clients = 100
	}
	if p.Workers <= 0 {
		p.Workers = 8
	}
	if p.Tenants <= 0 {
		p.Tenants = 1
	}
	if p.Queue == "" {
		p.Queue = service.DefaultQueue
	}
	if p.LeaseTTL <= 0 {
		p.LeaseTTL = 50 * time.Millisecond
	}
	if p.MeanGap <= 0 {
		p.MeanGap = 10 * time.Millisecond
	}
	if p.RetryBudget <= 0 {
		p.RetryBudget = 4
	}
	if p.DrainTimeout <= 0 {
		p.DrainTimeout = 10 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.TraceRing <= 0 {
		p.TraceRing = 1 << 18
	}
	return p
}

// Report is the outcome of one chaos run. Ok reports whether every
// invariant held.
type Report struct {
	Profile string
	Elapsed time.Duration

	Submitted uint64 // accepted submits
	Rejected  uint64 // backpressured submits (not owed delivery)
	Delivered uint64 // leases handed to workers (≥ Submitted: redeliveries)
	Acked     uint64
	Dead      uint64 // dead-lettered after the retry budget

	Crashes       uint64 // injected worker crashes mid-lease
	SlowHolds     uint64 // injected past-TTL lease holds
	FailedSettles uint64 // acks/nacks that lost their token race (expiry, restart)

	Redeliveries uint64 // service counter: leases beyond a job's first
	Expired      uint64 // service counter: scanner-reclaimed leases
	Swapped      int    // tenants swapped to Profile.SwapTo
	Restarted    bool

	LeaseP50, LeaseP99, LeaseP999 float64 // submit→first delivery, ns
	AckP50, AckP99, AckP999       float64 // submit→ack, ns

	Violations []Violation
	TracePath  string

	// MetricsAddr is the bound admin address (Profile.MetricsAddr, with
	// ":0" resolved), or "" when no listener was requested.
	MetricsAddr string
	// Dropped counts flight-recorder ring entries lost before the drain;
	// nonzero means Jobs undercounts (raise Profile.TraceRing).
	Dropped uint64
	// Jobs is the per-job lifecycle reconstruction of the recorded trace
	// (nil without TraceOut): complete submit→lease→ack chains, retry
	// depth distribution, dead-letter paths.
	Jobs *trace.JobSpanStats
}

// Ok reports whether the run upheld every invariant.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders the report as a short human-readable block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %q: %s\n", r.Profile, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  submitted=%d rejected=%d delivered=%d acked=%d dead=%d\n",
		r.Submitted, r.Rejected, r.Delivered, r.Acked, r.Dead)
	fmt.Fprintf(&b, "  injected: crashes=%d slow-holds=%d failed-settles=%d\n",
		r.Crashes, r.SlowHolds, r.FailedSettles)
	fmt.Fprintf(&b, "  service: redeliveries=%d expired=%d swapped=%d restarted=%v\n",
		r.Redeliveries, r.Expired, r.Swapped, r.Restarted)
	fmt.Fprintf(&b, "  lease ns p50/p99/p999: %.0f/%.0f/%.0f  ack: %.0f/%.0f/%.0f\n",
		r.LeaseP50, r.LeaseP99, r.LeaseP999, r.AckP50, r.AckP99, r.AckP999)
	if r.Jobs != nil {
		fmt.Fprintf(&b, "  jobs: %d spans, acked=%d (complete-chain=%d), dead=%d, redeliveries=%d, max-retry=%d\n",
			r.Jobs.Jobs, r.Jobs.Acked, r.Jobs.CompleteAcked, r.Jobs.Dead, r.Jobs.Redeliveries, r.Jobs.MaxRetry)
	}
	if w := trace.DroppedWarning(r.Dropped); w != "" {
		fmt.Fprintf(&b, "  %s\n", strings.ReplaceAll(w, "\n", "\n  "))
	}
	if r.Ok() {
		fmt.Fprintf(&b, "  invariants: OK")
	} else {
		fmt.Fprintf(&b, "  INVARIANT VIOLATIONS (%d):\n", len(r.Violations))
		max := len(r.Violations)
		if max > 20 {
			max = 20
		}
		for _, v := range r.Violations[:max] {
			fmt.Fprintf(&b, "    %s\n", v)
		}
		if max < len(r.Violations) {
			fmt.Fprintf(&b, "    ... and %d more", len(r.Violations)-max)
		}
	}
	return b.String()
}

// world holds the current service instance. The RWMutex makes a restart
// atomic with respect to new operations: ops take the read side to pick up
// the instance, the restart takes the write side to replace it. Ops do not
// hold the lock across the service call — the service's own shutdown fence
// handles stragglers — so a slow worker cannot stall the restart.
type world struct {
	mu  sync.RWMutex
	svc *service.Service
}

func (w *world) get() *service.Service {
	w.mu.RLock()
	s := w.svc
	w.mu.RUnlock()
	return s
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// Run executes one chaos run and returns its report. The error is for
// harness failures (bad profile, unwritable trace); invariant violations
// are in the report.
func Run(p Profile) (*Report, error) {
	p = p.withDefaults()

	st := obs.New()
	var col *trace.Collector
	if p.TraceOut != "" {
		col = trace.New(trace.WithRingSize(p.TraceRing))
		col.SetMeta("workload", "chaos-"+p.Name)
		st = obs.NewWithEvents(col)
	}

	dir := p.SnapshotDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "sbqd-chaos-*")
		if err != nil {
			return nil, fmt.Errorf("chaos: temp dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	snapPath := filepath.Join(dir, "checkpoint.json")

	mk := func() (*service.Service, error) {
		return service.New(service.Config{
			Queue:       p.Queue,
			Shards:      p.Shards,
			LeaseTTL:    p.LeaseTTL,
			RetryBudget: p.RetryBudget,
			Backoff: policy.AbortBudget{
				Budget: p.RetryBudget,
				Inner:  policy.ExponentialBackoff{Base: 2, Max: 16},
			},
			BackoffUnit:  p.LeaseTTL / 16,
			MaxInFlight:  p.MaxInFlight,
			SnapshotPath: snapPath,
			Recorder:     st,
			Seed:         p.Seed,
		})
	}

	w := &world{}
	var err error
	if w.svc, err = mk(); err != nil {
		return nil, err
	}

	led := newLedger()
	rep := &Report{Profile: p.Name, Restarted: false}

	if p.MetricsAddr != "" {
		addr, stop, err := startAdmin(p.MetricsAddr, w)
		if err != nil {
			return nil, err
		}
		defer stop()
		rep.MetricsAddr = addr
	}
	var rejected, crashes, slowHolds, failedSettles atomic.Uint64
	var drainMode atomic.Bool

	start := time.Now()
	deadline := start.Add(p.Duration)

	// Producers: open-loop arrivals until the deadline.
	var pwg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		pwg.Add(1)
		go func(c int) {
			defer pwg.Done()
			ar := newArrivals(p.Seed+uint64(c)*0x9E3779B97F4A7C15, p.MeanGap, p.Duration,
				p.BurstEvery, p.BurstLen, start)
			tn := tenantName(c % p.Tenants)
			payload := []byte(fmt.Sprintf(`{"client":%d}`, c))
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if g := ar.gap(now); g > 0 {
					if rem := deadline.Sub(now); g > rem {
						g = rem
					}
					time.Sleep(g)
					if !time.Now().Before(deadline) {
						return
					}
				}
				j, err := w.get().Submit(tn, payload)
				switch {
				case err == nil:
					led.Submitted(j.ID)
				default:
					// Backpressure, or the restart fence: either way the
					// submit was refused, so the job is not owed delivery.
					rejected.Add(1)
				}
			}
		}(c)
	}

	// Workers: lease/settle with injected faults until told to stop.
	stopWorkers := make(chan struct{})
	var wwg sync.WaitGroup
	for i := 0; i < p.Workers; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			rng := p.Seed + 0xABCD<<32 + uint64(i)
			frand := func() float64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return float64((rng*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
			}
			tn := i % p.Tenants
			for {
				select {
				case <-stopWorkers:
					return
				default:
				}
				s := w.get()
				l, ok, err := s.Lease(tenantName(tn))
				if err != nil || !ok {
					tn = (tn + 1) % p.Tenants
					time.Sleep(200 * time.Microsecond)
					continue
				}
				led.Delivered(l.ID)
				if !drainMode.Load() {
					r := frand()
					switch {
					case r < p.CrashProb:
						// Crash mid-lease: vanish without settling. The
						// scanner must redeliver after the TTL.
						crashes.Add(1)
						continue
					case r < p.CrashProb+p.SlowProb:
						// Slow consumer: outlive the TTL, then try to ack
						// anyway. The ack must lose to the expiry.
						slowHolds.Add(1)
						time.Sleep(p.LeaseTTL + p.LeaseTTL/2)
					case r < p.CrashProb+p.SlowProb+p.NackProb:
						if s.Nack(l.Token) != nil {
							failedSettles.Add(1)
						}
						continue
					}
				}
				if err := s.Ack(l.Token); err == nil {
					led.Acked(l.ID)
				} else {
					failedSettles.Add(1)
				}
			}
		}(i)
	}

	// Scenario: periodic forced expiry.
	scenarioCtx, stopScenarios := context.WithCancel(context.Background())
	var swg sync.WaitGroup
	if p.ForceExpiryEvery > 0 {
		swg.Add(1)
		go func() {
			defer swg.Done()
			tick := time.NewTicker(p.ForceExpiryEvery)
			defer tick.Stop()
			for {
				select {
				case <-scenarioCtx.Done():
					return
				case <-tick.C:
					// Expire every lease now outstanding: every in-flight
					// ack must lose its race. ForceExpire paces the
					// redeliveries from the real clock, so forced jobs
					// requeue on the normal backoff schedule instead of
					// inheriting a fabricated future NotBefore.
					w.get().ForceExpire()
				}
			}
		}()
	}

	// Scenario: mid-run backend swap (HTM-disabled-mode analogue). This
	// and the restart arm their timers from start, not in their
	// goroutines: a goroutine scheduled late would otherwise fire late, or
	// be cancelled first.
	if p.SwapTo != "" {
		swapAt := time.NewTimer(time.Until(start.Add(p.Duration / 2)))
		swg.Add(1)
		go func() {
			defer swg.Done()
			defer swapAt.Stop()
			select {
			case <-scenarioCtx.Done():
				return
			case <-swapAt.C:
			}
			for t := 0; t < p.Tenants; t++ {
				if err := w.get().SwapBackend(tenantName(t), p.SwapTo); err == nil {
					rep.Swapped++
				}
			}
		}()
	}

	// Scenario: mid-run restart through the checkpoint. readyViol is only
	// written here and only read after swg.Wait.
	var restartErr error
	var readyViol []Violation
	if p.Restart {
		restartAt := time.NewTimer(time.Until(start.Add(p.Duration * 3 / 4)))
		swg.Add(1)
		go func() {
			defer swg.Done()
			defer restartAt.Stop()
			select {
			case <-scenarioCtx.Done():
				return
			case <-restartAt.C:
			}
			w.mu.Lock()
			defer w.mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), 2*p.LeaseTTL)
			// Forced expiry at the deadline is expected here: workers hold
			// leases on purpose, and the checkpoint must carry their jobs.
			_ = w.svc.Shutdown(ctx)
			cancel()
			// Readiness must track the lifecycle exactly: the drained
			// instance stops reporting ready the moment its fence flips
			// (so a /readyz-keyed balancer stops routing), and the restored
			// instance reports ready as soon as New returns.
			if w.svc.Ready() {
				readyViol = append(readyViol, Violation{Kind: VReady,
					Detail: "old instance still ready after Shutdown"})
			}
			ns, err := mk()
			if err != nil {
				restartErr = err
				return
			}
			if !ns.Ready() {
				readyViol = append(readyViol, Violation{Kind: VReady,
					Detail: "restored instance not ready after New"})
			}
			w.svc = ns
			rep.Restarted = true
		}()
	}

	pwg.Wait() // submit phase over: producers ran the full Duration, so
	// the mid-run scenario timers (Duration/2, 3·Duration/4) have fired.
	drainMode.Store(true)
	stopScenarios() // force-expiry loops until cancelled
	swg.Wait()
	if restartErr != nil {
		close(stopWorkers)
		wwg.Wait()
		return nil, fmt.Errorf("chaos: mid-run restart failed: %w", restartErr)
	}

	// Drain: workers now ack everything; crashed leases expire via the
	// service's own scanner. All depths must reach zero in time.
	drainDeadline := time.Now().Add(p.DrainTimeout)
	drained := false
	for time.Now().Before(drainDeadline) {
		stats := w.get().Stats()
		total := stats.InFlight
		for _, t := range stats.Tenants {
			total += t.Depth
		}
		if total == 0 {
			drained = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopWorkers)
	wwg.Wait()

	// Final shutdown must be clean: nothing is in flight.
	ctx, cancel := context.WithTimeout(context.Background(), p.DrainTimeout)
	shutErr := w.get().Shutdown(ctx)
	cancel()

	for t := 0; t < p.Tenants; t++ {
		for _, j := range w.get().DeadLetters(tenantName(t)) {
			led.Dead(j.ID)
		}
	}

	rep.Violations = led.Check()
	rep.Violations = append(rep.Violations, readyViol...)
	if !drained {
		rep.Violations = append(rep.Violations, Violation{Kind: VDrain,
			Detail: fmt.Sprintf("depth nonzero after %s", p.DrainTimeout)})
	}
	if shutErr != nil {
		rep.Violations = append(rep.Violations, Violation{Kind: VDrain,
			Detail: fmt.Sprintf("final shutdown not clean: %v", shutErr)})
	}

	rep.Elapsed = time.Since(start)
	rep.Submitted, rep.Delivered, rep.Acked, rep.Dead = led.Counts()
	rep.Violations = append(rep.Violations, metricsCrossCheck(st, rep.Submitted, rep.Acked)...)
	rep.Rejected = rejected.Load()
	rep.Crashes = crashes.Load()
	rep.SlowHolds = slowHolds.Load()
	rep.FailedSettles = failedSettles.Load()
	snap := st.Snapshot()
	rep.Redeliveries = snap.Counter(obs.SrvRedeliveries)
	rep.Expired = snap.Counter(obs.SrvExpired)
	lease := snap.Series[obs.LeaseLatency]
	ackS := snap.Series[obs.AckLatency]
	rep.LeaseP50, rep.LeaseP99, rep.LeaseP999 =
		lease.Quantile(0.50), lease.Quantile(0.99), lease.Quantile(0.999)
	rep.AckP50, rep.AckP99, rep.AckP999 =
		ackS.Quantile(0.50), ackS.Quantile(0.99), ackS.Quantile(0.999)

	if col != nil {
		tr := col.Snapshot()
		rep.Dropped = tr.Dropped
		rep.Jobs = trace.AnalyzeJobs(tr)
		f, err := os.Create(p.TraceOut)
		if err != nil {
			return rep, fmt.Errorf("chaos: trace out: %w", err)
		}
		defer f.Close()
		if err := tr.WriteChrome(f); err != nil {
			return rep, fmt.Errorf("chaos: writing trace: %w", err)
		}
		rep.TracePath = p.TraceOut
	}
	return rep, nil
}
