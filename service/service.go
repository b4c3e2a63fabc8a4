// Package service implements sbqd's core: a fault-tolerant, multi-tenant
// job-queue service built on the repository's native queues.
//
// Each tenant owns one queue built through repro/queue/registry (default
// entry "Sharded-FAA"); the queue carries the job records themselves, so a
// lease takes its job straight from the dequeue, and the service layers
// the durability machinery around it:
//
//   - Lease-based at-least-once delivery. Lease hands a worker a job plus
//     a token that no other lease of this service, before or after a
//     graceful restart, carries; the worker settles with Ack or Nack. A
//     deadline scanner reclaims leases whose TTL expired and redelivers
//     the job, so a worker crash loses nothing. Settlement consumes the
//     token atomically, so every job is acked at most once (the second
//     settle gets ErrNoSuchLease).
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
//   - Unclean exit. The claims above hold across a graceful Shutdown
//     only. A process that exits without one (SIGKILL, OOM) loses every
//     job submitted, leased or delayed since the last checkpoint. The next
//     New restores that last checkpoint again, because restore neither
//     removes nor replaces the file it read, so a job acked since it was
//     written is delivered, and can be acked, again. And its slots mint
//     tokens from that checkpoint's next_token (from 64 without one), so a
//     token a worker kept from the dead process can name a fresh lease and
//     ack another job.
//
// The calls write per-P state: Submit, Lease and SwapBackend borrow the
// slot of the P they run on (see slot), and Ack and Nack go to the slot
// their token names, so concurrent calls on different Ps share no token or
// job-id counter, lease table, in-flight count (which is also the shutdown
// fence), lane or telemetry line. A plain cycle takes no lock but its
// slot's lease-table mutex and its lane's, and shares only the tenant's
// depth word and, when a Lease steals, a queue shard.
//
// Telemetry flows through repro/internal/obs (SrvSubmits..SrvRejects
// counters, LeaseLatency/AckLatency series) and, when the root scope
// carries a flight recorder, per-job timeline events
// (EvSrvSubmit..EvSrvDLQ). Each event is recorded once, into the narrowest
// scope that owns it: every tenant records into a child scope of the
// service's root obs.Stats, and each of its lanes and queue shards into a
// child of the tenant's. Wider scopes sum their children at read time, so
// merging every tenant's snapshot reproduces the root's. MetricsHandler
// renders the tenant and shard scopes as a Prometheus /metrics page with
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
	// Lanes is the number of lanes per tenant. Lane i owns registry
	// producer view i behind a mutex (HTTP handlers run on arbitrary
	// goroutines; producer views are single-goroutine) and consumer view i,
	// which on a sharded entry has the same home shard. A call uses the
	// lane of its slot, slot index mod Lanes, so a P submits and leases on
	// one home shard and steals only when that shard runs dry. 0 = 4.
	Lanes int
	// LeaseTTL is how long a lease lives before the scanner reclaims it
	// (0 = 30s).
	LeaseTTL time.Duration
	// ScanInterval is the deadline-scanner period (0 = LeaseTTL/4,
	// clamped to [1ms, 1s]). A pass walks every outstanding lease, about
	// 19-49ns each (BenchmarkScanOnce: 1.2-3.2ms at 65,536 outstanding
	// leases on a 2-vCPU Xeon, about 0.3% of one core at the 1s default);
	// settled leases cost it nothing.
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
	// Recorder is the service's root telemetry scope (nil = a private
	// root, readable through Stats): each tenant records into a child scope
	// of it (obs.Stats.Scope) and each lane and queue shard into a child of
	// its tenant's, so every event is recorded once and Recorder's Snapshot
	// sums them all. Tenant scopes stay attached to the root for its
	// lifetime, so a recorder shared by successive Services (the chaos
	// harness restarts one mid-run) keeps counting across them. When the
	// root carries a flight recorder (obs.NewWithEvents), every scope hands
	// it the queue and service timeline events. The /metrics exporter reads
	// the tenant and shard scopes (see MetricsHandler).
	Recorder *obs.Stats
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
	// inject it to force expiries deterministically. Under the default
	// clock Ack times its latency with time.Since, one read of the
	// monotonic clock; an injected clock times it as Now().Sub.
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
	// stats is the root telemetry scope (see Config.Recorder), and ev its
	// flight recorder, nil unless it carries one.
	stats *obs.Stats
	ev    obs.EventRecorder
	log   *srvLogger // nil when Config.Logger is nil (methods are nil-safe)
	now   func() time.Time
	state atomic.Int32 // srvServing → srvDraining → srvStopped

	// slots hold the write-hot state of the calls (see slot); slotPool
	// hands each P its slot.
	slots    *[numSlots]slot
	slotPool *sync.Pool

	// since returns the time elapsed since a reading of now: one read of
	// the monotonic clock under the default clock, now().Sub under an
	// injected one.
	since func(time.Time) time.Duration

	// Lock discipline: tmu, the slots' lease-table mutexes, dmu,
	// tenant.dlqMu, the lanes and the backoff RNG's mutex are leaves, each
	// held alone, never with another service lock. Only tenant.swapMu
	// encloses others, by design: SwapBackend holds it across its lane
	// barrier and drain.

	// tenants is an immutable name → tenant map, read without a lock and
	// replaced by a copy when a tenant is created; tmu serializes creation.
	tenants atomic.Pointer[map[string]*tenant]
	tmu     sync.Mutex

	dmu     sync.Mutex // guards delayed
	delayed jobHeap
	rng     lockedRNG // backoff jitter for redeliveries

	scanStop chan struct{}
	scanDone chan struct{}
}

// New builds a Service, restores Config.SnapshotPath if a checkpoint is
// present, and starts the deadline scanner.
func New(cfg Config) (*Service, error) {
	since := time.Since
	if now := cfg.Now; now != nil {
		since = func(t time.Time) time.Duration { return now().Sub(t) }
	}
	cfg = cfg.withDefaults()
	if _, ok := registry.OrderingOf(cfg.Queue); !ok {
		return nil, fmt.Errorf("service: unknown queue %q (have %v)", cfg.Queue, registry.Names())
	}
	s := &Service{
		cfg:      cfg,
		now:      cfg.Now,
		since:    since,
		slots:    newSlots(cfg.Lanes),
		scanStop: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	s.slotPool = newSlotPool(s.slots)
	s.tenants.Store(&map[string]*tenant{})
	s.rng.s = cfg.Seed
	s.log = newSrvLogger(cfg.Logger, cfg.LogEvery)
	s.stats = cfg.Recorder
	if s.stats == nil {
		s.stats = obs.New()
	}
	s.ev = s.stats.Events()
	if cfg.SnapshotPath != "" {
		if err := s.restore(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	go s.scanLoop()
	return s, nil
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

// begin borrows the calling P's slot and enters the shutdown fence on it
// (see enter). On nil the caller must release the slot's count and return
// the slot with end, unless a Lease hands the count to its token.
func (s *Service) begin() (*slot, error) {
	sl := s.slotPool.Get().(*slot)
	if err := s.enter(sl); err != nil {
		s.slotPool.Put(sl)
		return nil, err
	}
	return sl, nil
}

// enter is the shutdown fence for Submit, Lease and SwapBackend: it adds
// one to sl's in-flight count before it loads the state, so a call that
// loads "serving" counted itself before Shutdown flipped the state, and
// the drain, which waits for the slots' counts to sum to zero after the
// flip, cannot miss it, whichever slot it holds.
func (s *Service) enter(sl *slot) error {
	sl.inFlight.Add(1)
	switch s.state.Load() {
	case srvServing:
		return nil
	case srvDraining:
		sl.inFlight.Add(-1)
		return ErrDraining
	default:
		sl.inFlight.Add(-1)
		return ErrStopped
	}
}

// end releases the count taken by a successful begin and returns the slot
// to the pool.
func (s *Service) end(sl *slot) {
	sl.inFlight.Add(-1)
	s.slotPool.Put(sl)
}

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
	sl, err := s.begin()
	if err != nil {
		return Job{}, err
	}
	defer s.end(sl)
	t, err := s.tenantFor(tenantName, true)
	if err != nil {
		return Job{}, err
	}
	rec := t.laneRec[sl.lane]
	if q := s.cfg.MaxInFlight; q > 0 {
		if d := t.depth.Add(1); d > q {
			t.depth.Add(-1)
			rec.Inc(obs.SrvRejects)
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
		id:        sl.newID(),
		tenant:    t,
		payload:   payload,
		submitted: s.now(),
	}
	out := j.external() // before publishing: a lease may mutate j at once
	// Record the submit before the enqueue makes the job leasable: a worker
	// can lease the instant the job is in the queue, and the submit event
	// must carry the earlier timestamp or job-span reconstruction
	// (trace.AnalyzeJobs) would see a lease-before-submit chain.
	rec.Inc(obs.SrvSubmits)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvSubmit, obs.LaneDefault, j.id)
	}
	s.log.submit(t.name, j.id)
	t.enqueue(j, sl.lane)
	return out, nil
}

// Lease hands the caller one job from tenant, or ok=false when the tenant's
// queue is empty. The returned lease must be settled with Ack or Nack
// before its deadline or the scanner reclaims and redelivers it.
func (s *Service) Lease(tenantName string) (Lease, bool, error) {
	sl, err := s.begin()
	if err != nil {
		return Lease{}, false, err
	}
	defer s.slotPool.Put(sl)
	t, err := s.tenantFor(tenantName, false)
	if err == nil && t != nil {
		if j, ok := t.dequeue(sl.lane); ok {
			return s.lease(sl, j), true, nil
		}
	}
	sl.inFlight.Add(-1) // nothing delivered: the call ends here
	return Lease{}, false, err
}

// lease delivers j under a fresh token of sl and publishes the token in
// sl's lease table. The caller has entered sl; its in-flight count passes
// to the token, and whoever takes the token releases it.
func (s *Service) lease(sl *slot, j *job) Lease {
	token := sl.mint()
	now := s.now()
	deadline := now.Add(s.cfg.LeaseTTL)

	// The dequeue handed j to this call alone: no other goroutine reaches
	// it until the token is published.
	j.attempts++
	first := !j.delivered
	j.delivered = true
	attempts := j.attempts
	out := Lease{Job: j.external(), Token: token, Deadline: deadline}

	// Record the lease before publishing the token: once it is in the
	// table, ForceExpire or the scanner can take it and the job can be
	// leased again and acked, and this lease's event must precede all of
	// that or job-span reconstruction sees a broken chain.
	rec := j.tenant.laneRec[sl.lane]
	rec.Inc(obs.SrvLeases)
	if attempts > 1 {
		rec.Inc(obs.SrvRedeliveries)
	}
	if first {
		rec.Observe(obs.LeaseLatency, nanos(now.Sub(j.submitted)))
	}
	if s.ev != nil {
		s.ev.Event(obs.EvSrvLease, obs.LaneDefault, j.id)
	}
	s.log.lease(j.tenant.name, j.id, token, attempts)

	sl.put(token, leaseEntry{j: j, deadline: deadline})
	return out
}

// nanos renders an elapsed time for a latency series. A clock that stepped
// back, an injected one or the wall clock behind a restored job's
// submission time, reads as 0.
func nanos(d time.Duration) uint64 { return uint64(max(d, 0)) }

// Ack settles a lease successfully: the job is done and will never be
// redelivered. A second Ack (or an Ack after expiry) gets ErrNoSuchLease.
func (s *Service) Ack(token uint64) error {
	if s.state.Load() == srvStopped {
		return ErrStopped
	}
	// Taking the token is the exactly-once arbiter: the winner owns the
	// job's next transition and must decrement its slot's in-flight count
	// when that transition is complete.
	sl := s.slotOf(token)
	j := sl.take(token)
	if j == nil {
		return ErrNoSuchLease
	}
	t := j.tenant
	t.depth.Add(-1)
	lat := nanos(s.since(j.submitted))
	rec := t.laneRec[sl.lane]
	rec.Inc(obs.SrvAcks)
	rec.Observe(obs.AckLatency, lat)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvAck, obs.LaneDefault, j.id)
	}
	s.log.ack(t.name, j.id, lat)
	sl.inFlight.Add(-1) // last: drain may proceed only once the job settled
	return nil
}

// Nack settles a lease unsuccessfully: the retry policy decides whether
// the job is redelivered (possibly delayed) or dead-lettered.
func (s *Service) Nack(token uint64) error {
	if s.state.Load() == srvStopped {
		return ErrStopped
	}
	sl := s.slotOf(token)
	j := sl.take(token)
	if j == nil {
		return ErrNoSuchLease
	}
	j.tenant.laneRec[sl.lane].Inc(obs.SrvNacks)
	if s.ev != nil {
		s.ev.Event(obs.EvSrvNack, obs.LaneDefault, j.id)
	}
	s.log.nack(j.tenant.name, j.id)
	s.redeliver(sl, j, s.now())
	return nil
}

// redeliver routes a failed delivery (nack or expiry) of a lease minted on
// sl, through sl's lane. The caller must have taken the lease's token;
// redeliver finishes the transition and decrements sl's in-flight count.
func (s *Service) redeliver(sl *slot, j *job, now time.Time) {
	dec := s.cfg.Backoff.Decide(policy.Abort{Attempt: j.attempts}, s.rng.randN)
	switch delay := time.Duration(dec.Delay) * s.cfg.BackoffUnit; {
	case dec.Fallback:
		s.deadLetter(j, sl.lane)
	case delay <= 0:
		j.tenant.enqueue(j, sl.lane)
	default:
		s.dmu.Lock()
		s.delayed.push(jobAt{at: now.Add(delay), j: j})
		s.dmu.Unlock()
	}
	sl.inFlight.Add(-1)
}

// deadLetter moves j to its tenant's dead-letter queue, recording the
// event in lane ln's scope. The job enters the dead-letter list before it
// leaves the tenant's depth, and Stats reads the depth before it reads the
// list, so a concurrent Stats may count a dying job twice (in depth and in
// the list) but never misses it.
func (s *Service) deadLetter(j *job, ln int) {
	t := j.tenant
	attempts := j.attempts
	t.dlqMu.Lock()
	t.dead = append(t.dead, j)
	t.dlqMu.Unlock()
	t.depth.Add(-1)
	t.laneRec[ln].Inc(obs.SrvDLQ)
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
// unconditionally. The lease walk visits every outstanding lease, one slot
// at a time, so settled leases cost the scanner nothing; the order in
// which one pass redelivers the leases it reclaims is unspecified.
func (s *Service) scanOnce(now time.Time, force bool) int {
	var expired []lapsed
	for i := range s.slots {
		sl := &s.slots[i]
		sl.walk(func(_ uint64, e leaseEntry) bool {
			if force || !e.deadline.After(now) {
				expired = append(expired, lapsed{sl, e.j})
				return true
			}
			return false
		})
	}
	var release []*job
	s.dmu.Lock()
	for s.delayed.len() > 0 && (force || !s.delayed.min().at.After(now)) {
		release = append(release, s.delayed.pop().j)
	}
	s.dmu.Unlock()

	for _, x := range expired {
		j := x.j
		j.tenant.laneRec[x.sl.lane].Inc(obs.SrvExpired)
		if s.ev != nil {
			s.ev.Event(obs.EvSrvExpire, obs.LaneDefault, j.id)
		}
		s.log.expire(j.tenant.name, j.id)
		s.redeliver(x.sl, j, now)
	}
	for _, j := range release {
		j.tenant.enqueue(j, j.tenant.laneOf(j.id))
	}
	return len(expired)
}

// lapsed is a lease the scanner reclaimed, with the slot that minted it.
type lapsed struct {
	sl *slot
	j  *job
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
