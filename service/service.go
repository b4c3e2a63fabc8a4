// Package service implements sbqd's core: a fault-tolerant, multi-tenant
// job-queue service built on the repository's native queues.
//
// Each tenant owns one queue built through repro/queue/registry (default
// entry "Sharded-FAA"); the queue carries the job records themselves, so a
// lease takes its job straight from the dequeue, and the service layers
// the durability machinery around it:
//
//   - Lease-based at-least-once delivery. Lease hands a worker a job plus
//     a monotonic token; the worker settles with Ack or Nack. A deadline
//     scanner reclaims leases whose TTL expired and redelivers the job, so
//     a worker crash loses nothing. Settlement consumes the token
//     atomically, so every job is acked at most once (the second settle
//     gets ErrNoSuchLease).
//   - Retry budget and dead-lettering. Redelivery pacing and the DLQ
//     decision reuse repro/internal/machine/policy: the same
//     policy.AbortBudget template the simulated machines use to bound the
//     HTM fast path bounds a job's delivery attempts — Decision.Fallback
//     routes the job to the tenant's dead-letter queue, Decision.Delay
//     (in abstract cycles, scaled by Config.BackoffUnit) paces the next
//     attempt. The service's fallback path is the DLQ, with exactly the
//     paper's discipline: bounded optimism, then a guaranteed slow path.
//   - Backpressure. A tenant's in-flight depth (queued + delayed +
//     leased) is bounded by Config.MaxInFlight; Submit over quota returns
//     *BackpressureError, which the HTTP layer maps to 429 + Retry-After.
//   - Graceful shutdown. Shutdown fences Submit/Lease (ErrDraining),
//     waits for in-flight leases to settle (force-expiring stragglers at
//     the context deadline), then checkpoints every unsettled job to
//     Config.SnapshotPath as JSON; New restores the checkpoint, so a
//     restart redelivers instead of losing.
//
// Telemetry flows through repro/internal/obs (SrvSubmits..SrvRejects
// counters, LeaseLatency/AckLatency series) and, when the configured
// recorder is a flight recorder, per-job timeline events
// (EvSrvSubmit..EvSrvDLQ). Each event is recorded once, into the narrowest
// scope that owns it: every tenant records into a child scope of the
// service's root obs.Stats, and each queue shard into a child of its
// tenant's. Wider scopes sum their children at read time, so merging every
// tenant's snapshot reproduces the root's. MetricsCollection renders the
// tenant and shard scopes as a Prometheus /metrics page with
// tenant/queue/shard labels.
// Structured request logs (log/slog, per-kind sampling) are enabled by
// Config.Logger; GET /readyz reports drain state for orchestration.
package service

import (
	"fmt"
	"log/slog"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/queue/registry"
)

// DefaultQueue is the registry entry tenants are built on when Config.Queue
// is empty.
const DefaultQueue = "Sharded-FAA"

// Config parameterizes a Service. The zero value is fully usable: every
// field documents its default.
type Config struct {
	// Queue is the registry entry backing each tenant ("" = DefaultQueue).
	Queue string
	// Shards is passed through to registry.Config.Shards (0 = the entry's
	// default).
	Shards int
	// Lanes is the number of producer lanes per tenant — concurrent
	// Submits spread across lanes round-robin, each lane owning one
	// registry producer view behind a mutex (HTTP handlers run on
	// arbitrary goroutines; producer views are single-goroutine). 0 = 4.
	Lanes int
	// LeaseTTL is how long a lease lives before the scanner reclaims it
	// (0 = 30s).
	LeaseTTL time.Duration
	// ScanInterval is the deadline-scanner period (0 = LeaseTTL/4,
	// clamped to [1ms, 1s]). A pass walks every outstanding lease, about
	// 50ns each (BenchmarkScanOnce: ~3.3ms at 65,536 outstanding leases on
	// a 2-vCPU Xeon, ~0.3% of one core at the 1s default); settled leases
	// cost it nothing.
	ScanInterval time.Duration
	// RetryBudget is the delivery budget before a job dead-letters when
	// Backoff is nil (0 = 5). Ignored when Backoff is set.
	RetryBudget int
	// Backoff decides, after each failed delivery, whether to dead-letter
	// (Decision.Fallback) and how long to delay redelivery
	// (Decision.Delay cycles × BackoffUnit). Nil selects
	// policy.AbortBudget{Budget: RetryBudget, Inner:
	// policy.ExponentialBackoff{Base: 4, Max: 256}}.
	Backoff policy.RetryPolicy
	// BackoffUnit scales Decision.Delay cycles to wall time (0 = 1ms).
	BackoffUnit time.Duration
	// MaxInFlight bounds each tenant's unsettled depth (0 = 1<<16;
	// negative = unlimited).
	MaxInFlight int64
	// MaxTenants bounds how many tenants Submit may auto-create (0 = 1024;
	// negative = unlimited). Each tenant owns a full registry-built queue,
	// so over an open endpoint an unbounded tenant namespace is a memory-
	// exhaustion vector; Submit for a new tenant past the cap returns
	// ErrTenantLimit (HTTP 429). Restore counts checkpointed tenants
	// against the cap but never refuses them — persisted work always
	// comes back.
	MaxTenants int
	// SnapshotPath, when non-empty, is where Shutdown checkpoints
	// unsettled jobs and where New looks for a checkpoint to restore.
	SnapshotPath string
	// Recorder receives telemetry. When it is an *obs.Stats it is the
	// service's root scope: each tenant records into a child scope of it
	// (obs.Stats.Scope) and each queue shard into a child of its tenant's,
	// so every event is recorded once and Recorder's Snapshot sums them
	// all. Tenant scopes stay attached to that Stats for its lifetime, so
	// a recorder shared by successive Services (the chaos harness restarts
	// one mid-run) keeps counting across them. Any other recorder (nil, or
	// a flight recorder) gets a private root, readable through Stats; a
	// non-nil one additionally receives every scope's records through
	// obs.Tee, so it sees each counter once and every queue and service
	// event. The /metrics exporter reads the tenant and shard scopes (see
	// MetricsCollection).
	Recorder obs.Recorder
	// Logger, when non-nil, receives structured job-lifecycle records
	// (log/slog): submit, lease, ack, nack, expire, dead-letter, reject,
	// plus unsampled service lifecycle records (restore, shutdown, backend
	// swaps). Nil disables logging entirely.
	Logger *slog.Logger
	// LogEvery samples the high-rate job-event records (submit, lease,
	// ack, nack, expire): 1 in every LogEvery occurrences of each kind is
	// logged (0 or 1 = every one). Dead-letter, reject, and lifecycle
	// records are never sampled — they are rare and always interesting.
	LogEvery int
	// Now is the clock (nil = time.Now). Tests and the chaos harness
	// inject it to force expiries deterministically.
	Now func() time.Time
	// Seed seeds backoff jitter (0 = 1).
	Seed uint64
}

func (cfg Config) withDefaults() Config {
	if cfg.Queue == "" {
		cfg.Queue = DefaultQueue
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 4
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = cfg.LeaseTTL / 4
		if cfg.ScanInterval < time.Millisecond {
			cfg.ScanInterval = time.Millisecond
		}
		if cfg.ScanInterval > time.Second {
			cfg.ScanInterval = time.Second
		}
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 5
	}
	if cfg.Backoff == nil {
		cfg.Backoff = policy.AbortBudget{
			Budget: cfg.RetryBudget,
			Inner:  policy.ExponentialBackoff{Base: 4, Max: 256},
		}
	}
	if cfg.BackoffUnit <= 0 {
		cfg.BackoffUnit = time.Millisecond
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 1 << 16
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Service lifecycle states.
const (
	srvServing int32 = iota
	srvDraining
	srvStopped
)

// Service is the job-queue daemon core. All methods are safe for
// concurrent use.
type Service struct {
	cfg Config
	// stats is the root telemetry scope (see Config.Recorder); sink is
	// Config.Recorder when that is a recorder other than an *obs.Stats,
	// which every tenant and shard scope is teed toward, else nil.
	stats *obs.Stats
	sink  obs.Recorder
	ev    obs.EventRecorder
	log   *srvLogger // nil when Config.Logger is nil (methods are nil-safe)
	now   func() time.Time
	rng   lockedRNG

	metricsOnce sync.Once
	metrics     *export.Collection // lazily built; windows persist across scrapes

	_ [64]byte
	//lf:contended every Submit, Lease and Ack writes these
	srvHot
	_ [64]byte

	// Lock discipline: tmu, the lease table shards, dmu, tenant.dlqMu,
	// the producer lanes, job.mu and the backoff RNG's mutex are leaves,
	// each held alone, never with another service lock. Only two locks
	// enclose others, by design: the fence's read side above, held across
	// a whole call, and tenant.swapMu, which SwapBackend holds across its
	// lane barrier and drain.

	// tenants is an immutable name → tenant map, read without a lock and
	// replaced by a copy when a tenant is created; tmu serializes creation.
	tenants atomic.Pointer[map[string]*tenant]
	tmu     sync.Mutex

	// leases maps each outstanding lease token to its job and deadline;
	// taking a token out of it is the exactly-once settlement arbiter.
	leases shardedMap[leaseEntry]

	dmu     sync.Mutex // guards delayed
	delayed jobHeap

	scanStop chan struct{}
	scanDone chan struct{}
}

// New builds a Service, restores Config.SnapshotPath if a checkpoint is
// present, and starts the deadline scanner.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if _, ok := registry.OrderingOf(cfg.Queue); !ok {
		return nil, fmt.Errorf("service: unknown queue %q (have %v)", cfg.Queue, registry.Names())
	}
	s := &Service{
		cfg:      cfg,
		now:      cfg.Now,
		leases:   newShardedMap[leaseEntry](leaseShards),
		scanStop: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	s.tenants.Store(&map[string]*tenant{})
	s.rng.s = cfg.Seed
	s.log = newSrvLogger(cfg.Logger, cfg.LogEvery)
	rec := obs.Normalize(cfg.Recorder)
	if st, ok := rec.(*obs.Stats); ok {
		s.stats = st
	} else {
		s.stats = obs.New()
		s.sink = rec
	}
	s.ev = obs.Events(rec)
	if cfg.SnapshotPath != "" {
		if err := s.restore(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	go s.scanLoop()
	return s, nil
}

// srvHot holds the Service words that every Submit, Lease or Ack writes.
// They share lines with each other only: the Service pads them off the
// fields every call merely reads.
type srvHot struct {
	state atomic.Int32 // srvServing → srvDraining → srvStopped
	// fence is the shutdown fence: Submit, Lease and SwapBackend hold a
	// read lock for their whole call (see begin), and Shutdown, having
	// flipped state, takes the write lock once to wait them out. No path
	// may nest begin: a read lock requested while Shutdown waits blocks.
	fence sync.RWMutex

	nextID    atomic.Uint64
	nextToken atomic.Uint64
	inFlight  atomic.Int64 // outstanding lease tokens, settled post-state
}

// lockedRNG is an xorshift64* stream behind a mutex — backoff jitter is
// far off the hot path.
type lockedRNG struct {
	mu sync.Mutex
	s  uint64
}

func (r *lockedRNG) randN(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	r.mu.Lock()
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	v := r.s * 0x2545F4914F6CDD1D
	r.mu.Unlock()
	return v % n
}

// begin is the shutdown fence for Submit, Lease and SwapBackend: it takes
// the fence's read lock before checking the state, so Shutdown's state flip
// followed by one write-lock acquisition cannot miss an in-flight call. On
// nil the caller must release the fence with end.
func (s *Service) begin() error {
	s.fence.RLock()
	switch s.state.Load() {
	case srvServing:
		return nil
	case srvDraining:
		s.fence.RUnlock()
		return ErrDraining
	default:
		s.fence.RUnlock()
		return ErrStopped
	}
}

// end releases the fence taken by a successful begin.
func (s *Service) end() { s.fence.RUnlock() }

// tenantMap returns the current immutable tenant map.
func (s *Service) tenantMap() map[string]*tenant { return *s.tenants.Load() }

// tenantFor returns (creating if asked) the named tenant. Lookups take no
// lock; creation runs under tmu, which re-checks the map, applies the
// MaxTenants cap and publishes a copy of the map with the new tenant.
func (s *Service) tenantFor(name string, create bool) (*tenant, error) {
	if t := s.tenantMap()[name]; t != nil || !create {
		return t, nil
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	cur := s.tenantMap()
	if t := cur[name]; t != nil {
		return t, nil
	}
	if q := s.cfg.MaxTenants; q > 0 && len(cur) >= q {
		return nil, fmt.Errorf("service: cannot create tenant %q (%d tenants, cap %d): %w",
			name, len(cur), q, ErrTenantLimit)
	}
	t, err := s.newTenant(name, s.cfg.Queue)
	if err != nil {
		return nil, err
	}
	next := maps.Clone(cur)
	next[name] = t
	s.tenants.Store(&next)
	return t, nil
}

// Submit accepts a job for tenant, subject to the tenant's depth quota.
func (s *Service) Submit(tenantName string, payload json.RawMessage) (Job, error) {
	if err := s.begin(); err != nil {
		return Job{}, err
	}
	defer s.end()
	t, err := s.tenantFor(tenantName, true)
	if err != nil {
		return Job{}, err
	}
	if q := s.cfg.MaxInFlight; q > 0 {
		if d := t.depth.Add(1); d > q {
			t.depth.Add(-1)
			t.rec.Inc(obs.SrvRejects)
			s.log.reject(t.name, d-1, q)
			return Job{}, &BackpressureError{
				Tenant: tenantName, Depth: d - 1, Quota: q,
				RetryAfter: s.cfg.LeaseTTL,
			}
		}
	} else {
		t.depth.Add(1)
	}
	j := &job{
		id:        s.nextID.Add(1),
		tenant:    t,
		payload:   payload,
		submitted: s.now(),
	}
	out := j.external() // before publishing: a lease may mutate j at once
	// Record the submit before the enqueue makes the job leasable: a worker
	// can lease the instant the job is in the queue, and the submit event
	// must carry the earlier timestamp or job-span reconstruction
	// (trace.AnalyzeJobs) would see a lease-before-submit chain.
	t.rec.Inc(obs.SrvSubmits)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvSubmit, obs.LaneDefault, j.id)
	}
	s.log.submit(t.name, j.id)
	t.enqueue(j)
	return out, nil
}

// Lease hands the caller one job from tenant, or ok=false when the tenant's
// queue is empty. The returned lease must be settled with Ack or Nack
// before its deadline or the scanner reclaims and redelivers it.
func (s *Service) Lease(tenantName string) (Lease, bool, error) {
	if err := s.begin(); err != nil {
		return Lease{}, false, err
	}
	defer s.end()
	t, err := s.tenantFor(tenantName, false)
	if err != nil || t == nil {
		return Lease{}, false, err
	}
	j, ok := t.dequeue()
	if !ok {
		return Lease{}, false, nil
	}
	return s.lease(j), true, nil
}

// leaseEntry is one outstanding lease in the lease table.
type leaseEntry struct {
	j        *job
	deadline time.Time
}

// lease delivers j under a fresh token and publishes the token in the
// lease table.
func (s *Service) lease(j *job) Lease {
	token := s.nextToken.Add(1)
	now := s.now()
	deadline := now.Add(s.cfg.LeaseTTL)

	j.mu.Lock()
	j.attempts++
	first := !j.delivered
	j.delivered = true
	attempts := j.attempts
	out := Lease{Job: j.external(), Token: token, Deadline: deadline}
	j.mu.Unlock()

	// Record the lease before publishing the token: once it is in the
	// table, ForceExpire or the scanner can take it and the job can be
	// leased again and acked, and this lease's event must precede all of
	// that or job-span reconstruction sees a broken chain.
	rec := j.tenant.rec
	rec.Inc(obs.SrvLeases)
	if attempts > 1 {
		rec.Inc(obs.SrvRedeliveries)
	}
	if first {
		rec.Observe(obs.LeaseLatency, uint64(now.Sub(j.submitted).Nanoseconds()))
	}
	if s.ev != nil {
		s.ev.Event(obs.EvSrvLease, obs.LaneDefault, j.id)
	}
	s.log.lease(j.tenant.name, j.id, token, attempts)

	s.inFlight.Add(1)
	s.leases.put(token, leaseEntry{j: j, deadline: deadline})
	return out
}

// takeLease atomically consumes token: exactly one caller (Ack, Nack, or
// the scanner) wins it. The winner owns the job's next transition and must
// decrement inFlight when that transition is complete.
func (s *Service) takeLease(token uint64) *job {
	e, _ := s.leases.take(token)
	return e.j
}

// Ack settles a lease successfully: the job is done and will never be
// redelivered. A second Ack (or an Ack after expiry) gets ErrNoSuchLease.
func (s *Service) Ack(token uint64) error {
	if s.state.Load() == srvStopped {
		return ErrStopped
	}
	j := s.takeLease(token)
	if j == nil {
		return ErrNoSuchLease
	}
	now := s.now()
	t := j.tenant
	t.depth.Add(-1)
	lat := uint64(now.Sub(j.submitted).Nanoseconds())
	t.rec.Inc(obs.SrvAcks)
	t.rec.Observe(obs.AckLatency, lat)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvAck, obs.LaneDefault, j.id)
	}
	s.log.ack(t.name, j.id, lat)
	s.inFlight.Add(-1) // last: drain may proceed only once the job settled
	return nil
}

// Nack settles a lease unsuccessfully: the retry policy decides whether
// the job is redelivered (possibly delayed) or dead-lettered.
func (s *Service) Nack(token uint64) error {
	if s.state.Load() == srvStopped {
		return ErrStopped
	}
	j := s.takeLease(token)
	if j == nil {
		return ErrNoSuchLease
	}
	j.tenant.rec.Inc(obs.SrvNacks)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvNack, obs.LaneDefault, j.id)
	}
	s.log.nack(j.tenant.name, j.id)
	s.redeliver(j, s.now())
	return nil
}

// redeliver routes a failed delivery (nack or expiry). The caller must
// have consumed the job's lease token via takeLease; redeliver finishes
// the transition and decrements inFlight.
func (s *Service) redeliver(j *job, now time.Time) {
	j.mu.Lock()
	attempts := j.attempts
	j.mu.Unlock()

	dec := s.cfg.Backoff.Decide(policy.Abort{Attempt: attempts, Requester: policy.NoRequester}, s.rng.randN)
	if dec.Fallback {
		s.deadLetter(j)
		s.inFlight.Add(-1)
		return
	}
	delay := time.Duration(dec.Delay) * s.cfg.BackoffUnit
	if delay <= 0 {
		j.tenant.enqueue(j)
		s.inFlight.Add(-1)
		return
	}
	s.dmu.Lock()
	s.delayed.push(jobAt{at: now.Add(delay), j: j})
	s.dmu.Unlock()
	s.inFlight.Add(-1)
}

// deadLetter moves j to its tenant's dead-letter queue. The job enters the
// dead-letter list before it leaves the tenant's depth, and Stats reads the
// depth before it reads the list, so a concurrent Stats may count a dying
// job twice (in depth and in the list) but never misses it.
func (s *Service) deadLetter(j *job) {
	t := j.tenant
	t.dlqMu.Lock()
	t.dead = append(t.dead, j)
	t.dlqMu.Unlock()
	j.mu.Lock()
	attempts := j.attempts
	j.mu.Unlock()
	t.depth.Add(-1)
	t.rec.Inc(obs.SrvDLQ)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvDLQ, obs.LaneDefault, j.id)
	}
	s.log.dlq(t.name, j.id, attempts)
}

// ScanOnce runs one deadline-scanner pass against the given clock reading:
// leases whose deadline passed are reclaimed and redelivered, delayed jobs
// whose pacing window passed are requeued. It returns the number of leases
// reclaimed. The background scanner calls it every ScanInterval.
func (s *Service) ScanOnce(now time.Time) int {
	return s.scanOnce(now, false)
}

// ForceExpire reclaims every outstanding lease and releases every delayed
// job regardless of deadline, as if all their timers had fired now. Unlike
// calling ScanOnce with a fabricated future clock, redelivery pacing is
// computed from the service's real clock, so a force-expired job's
// NotBefore stays near now rather than inheriting the fabricated offset
// (which a checkpoint would then persist, stranding the job in the delay
// heap after restore). Shutdown uses it at the drain deadline; the chaos
// harness uses it to force every in-flight ack to lose its token race.
func (s *Service) ForceExpire() int {
	return s.scanOnce(s.now(), true)
}

// scanOnce reclaims due timers. now is the redelivery pacing base and,
// when force is false, also the expiry cutoff; force reclaims every timer
// unconditionally. The lease walk visits every outstanding lease, one table
// shard at a time, so settled leases cost the scanner nothing; the order in
// which one pass redelivers the leases it reclaims is unspecified.
func (s *Service) scanOnce(now time.Time, force bool) int {
	expired := s.leases.sweep(func(e leaseEntry) bool {
		return force || !e.deadline.After(now)
	}, nil)
	var release []*job
	s.dmu.Lock()
	for s.delayed.len() > 0 && (force || !s.delayed.min().at.After(now)) {
		release = append(release, s.delayed.pop().j)
	}
	s.dmu.Unlock()

	for _, e := range expired {
		j := e.j
		j.tenant.rec.Inc(obs.SrvExpired)
		if s.ev != nil {
			s.ev.Event(obs.EvSrvExpire, obs.LaneDefault, j.id)
		}
		s.log.expire(j.tenant.name, j.id)
		s.redeliver(j, now)
	}
	for _, j := range release {
		j.tenant.enqueue(j)
	}
	return len(expired)
}

// scanLoop is the background deadline scanner.
func (s *Service) scanLoop() {
	defer close(s.scanDone)
	tick := time.NewTicker(s.cfg.ScanInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.scanStop:
			return
		case <-tick.C:
			s.ScanOnce(s.now())
		}
	}
}
