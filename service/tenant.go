package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/registry"
)

// tenant is one isolated job namespace: its own registry-built queue of
// job records, dead-letter list, and depth quota accounting.
type tenant struct {
	name string
	svc  *Service

	// stats is this tenant's scope, a child of the service's root. The
	// sharded front-end's steal counters land in it; its lanes and queue
	// shards record into child scopes of it, which its Snapshot sums.
	stats *obs.Stats
	// laneRec holds one child scope of stats per lane. A call records its
	// service lifecycle events (SrvSubmits..SrvRejects, lease/ack latency
	// series) into its lane's scope, so calls on different lanes write
	// different telemetry lines. Built once by newTenant, so like the
	// shard scopes they persist across SwapBackend.
	laneRec []*obs.Stats

	// shardStats holds one child scope of stats per queue shard, created
	// by the backend builder: an immutable slice, replaced by a longer copy
	// when a build needs more shards. Builds on one tenant never overlap
	// (newTenant builds before publishing the tenant, SwapBackend under
	// swapMu), so replacing it needs no lock. Shard scopes deliberately
	// persist across SwapBackend — shard i of the new backend accumulates
	// into the same scope as shard i of the old one — so the exported
	// per-shard counters stay monotonic for the /metrics scraper even while
	// the chaos harness swaps backends mid-run.
	shardStats atomic.Pointer[[]*obs.Stats]

	// be is the current backend; SwapBackend replaces it atomically and
	// migrates stranded elements (see swap).
	be atomic.Pointer[backend]
	// swapMu serializes SwapBackend calls on this tenant: a swap's drain
	// must finish publishing into its destination before another swap may
	// replace that destination, or the drained jobs would land in an
	// abandoned backend and become unreachable by Lease.
	swapMu sync.Mutex

	_ [64]byte
	//lf:contended every Submit and Ack writes it
	depth atomic.Int64 // queued + delayed + leased (quota accounting)
	_     [64]byte

	dlqMu sync.Mutex // guards dead
	dead  []*job     // dead-letter queue, oldest first
}

// backend is one built queue instance as the tenant drives it, through
// Config.Lanes lanes. Its elements are the tenant's queued jobs.
type backend struct {
	queueName string
	lanes     []*lane
}

// lane i is the tenant's path into the queue for the calls on the slots
// whose index mod Config.Lanes is i: registry producer view i behind a mutex
// (HTTP handlers run on arbitrary goroutines; the registry documents
// producer views as single-goroutine) and consumer view i, which is safe
// to share. On a sharded entry both views have home shard i mod Shards, so
// a P's Submits fill the shard its Leases drain first. Lanes are allocated
// one by one; the pads keep each lane's mutex off its neighbours' lines.
type lane struct {
	_ [64]byte
	//lf:contended Submits through this lane lock mu and enqueue on prod; Leases dequeue on cons
	laneHot
	_ [64]byte
}

// laneHot is a lane's mutex, the producer view it guards, and the lane's
// consumer view.
type laneHot struct {
	mu   sync.Mutex
	prod queue.BatchQueue[*job]
	cons queue.BatchQueue[*job]
}

// newBackend builds queueName for this tenant's shape. The sharded
// front-end records into the tenant's scope, each shard into the tenant's
// persistent scope for that shard, so /metrics can label CAS-failure and
// retry counters by shard; unsharded entries record into the tenant's
// scope.
func (t *tenant) newBackend(queueName string) (*backend, error) {
	s := t.svc
	inst, err := registry.BuildOf[*job](queueName, registry.Config{
		Producers:     s.cfg.Lanes,
		Shards:        s.cfg.Shards,
		Recorder:      t.stats,
		ShardRecorder: t.shardStatsFor,
	})
	if err != nil {
		return nil, err
	}
	be := &backend{queueName: queueName, lanes: make([]*lane, s.cfg.Lanes)}
	for i := range be.lanes {
		be.lanes[i] = &lane{laneHot: laneHot{prod: inst.ProducerView(i), cons: inst.ConsumerView(i)}}
	}
	return be, nil
}

// shardStatsFor returns (creating if needed) the tenant's scope for one
// queue shard. Only backend construction calls it; the returned recorder
// is what sits on the queue hot path.
func (t *tenant) shardStatsFor(shard int) *obs.Stats {
	cur := t.shardStatsList()
	if shard < len(cur) {
		return cur[shard]
	}
	next := append([]*obs.Stats(nil), cur...)
	for len(next) <= shard {
		next = append(next, t.stats.Scope())
	}
	t.shardStats.Store(&next)
	return next[shard]
}

// shardStatsList returns the per-shard scopes; callers must not
// modify it.
func (t *tenant) shardStatsList() []*obs.Stats {
	if p := t.shardStats.Load(); p != nil {
		return *p
	}
	return nil
}

// deadList returns the dead-letter list, oldest first. The list only ever
// grows by append, so the returned prefix stays valid; callers must not
// modify it.
func (t *tenant) deadList() []*job {
	t.dlqMu.Lock()
	defer t.dlqMu.Unlock()
	return t.dead[:len(t.dead):len(t.dead)]
}

// newTenant builds a tenant on the named registry entry. Callers serialize
// it (tenantFor under s.tmu, restore before the scanner starts).
func (s *Service) newTenant(name, queueName string) (*tenant, error) {
	t := &tenant{name: name, svc: s, stats: s.stats.Scope()}
	t.laneRec = make([]*obs.Stats, s.cfg.Lanes)
	for i := range t.laneRec {
		t.laneRec[i] = t.stats.Scope()
	}
	be, err := t.newBackend(queueName)
	if err != nil {
		return nil, err
	}
	t.be.Store(be)
	return t, nil
}

// laneOf picks a lane from a job id, for the paths that run on no slot:
// the scanner's delayed releases, restore and a swap's drain. A job id's
// low bits name the slot that minted it, so when Lanes divides numSlots
// this is the lane the job was submitted through.
func (t *tenant) laneOf(id uint64) int { return int(id % uint64(len(t.laneRec))) }

// enqueue pushes j through lane ln. The pointer re-check under the lane
// lock pairs with swap's lane barrier: an enqueue commits to a backend
// only while that backend is still current, so the post-barrier drain
// cannot miss it.
func (t *tenant) enqueue(j *job, ln int) {
	for {
		be := t.be.Load()
		l := be.lanes[ln]
		l.mu.Lock()
		if t.be.Load() != be {
			l.mu.Unlock()
			continue // swapped mid-pick; retry on the new backend
		}
		l.prod.Enqueue(j)
		l.mu.Unlock()
		return
	}
}

// dequeue pops one queued job through lane ln: from the lane's home shard
// first, stealing from the others when it is dry. ok=false when the queue
// appears empty.
func (t *tenant) dequeue(ln int) (*job, bool) {
	return t.be.Load().lanes[ln].cons.Dequeue()
}

// drainInto moves every element of old into the tenant's *current*
// backend. It returns once two consecutive sweeps of old's consumer view
// come back empty — by then every pre-swap enqueue has been barriered out
// (see SwapBackend) and the old queue holds nothing. Re-enqueueing goes
// through t.enqueue, whose pointer re-check under the lane lock guarantees
// each job commits to a backend that is still current — never to one a
// concurrent swap already replaced.
func (t *tenant) drainInto(old *backend) {
	cons := old.lanes[0].cons
	empty := 0
	for empty < 2 {
		j, ok := cons.Dequeue()
		if !ok {
			empty++
			continue
		}
		empty = 0
		t.enqueue(j, t.laneOf(j.id))
	}
}

// SwapBackend rebuilds tenantName's queue on a different registry entry
// mid-flight and migrates every queued element — the service-level
// analogue of the paper's HTM-to-fallback mode switch, exercised by the
// chaos harness (swap a tenant from Sharded-SBQ to Sharded-FAA under
// load and require zero lost jobs).
//
// Protocol: publish the new backend (new Submits land there), then take
// each old lane's mutex once as a barrier (any Submit that loaded the old
// pointer has finished its enqueue), then drain the old consumer view
// into the current backend until two consecutive empty sweeps. Elements
// dequeued concurrently by Lease are deliveries, not losses.
//
// Swaps on one tenant are serialized by t.swapMu, which also covers the
// new backend's construction (see tenant.shardStats), and the whole call
// is fenced by the shutdown fence like Submit/Lease: once Shutdown has
// flipped the state, SwapBackend returns ErrDraining/ErrStopped instead of
// racing the drain and checkpoint.
func (s *Service) SwapBackend(tenantName, queueName string) error {
	sl, err := s.begin()
	if err != nil {
		return err
	}
	defer s.end(sl)
	if _, ok := registry.OrderingOf(queueName); !ok {
		return fmt.Errorf("service: unknown queue %q (have %v)", queueName, registry.Names())
	}
	t, err := s.tenantFor(tenantName, false)
	if err != nil {
		return err
	}
	if t == nil {
		return fmt.Errorf("service: unknown tenant %q", tenantName)
	}
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	nb, err := t.newBackend(queueName)
	if err != nil {
		return err
	}
	old := t.be.Swap(nb)
	for _, ln := range old.lanes {
		// Empty critical section on purpose: a barrier flushing every
		// enqueue that committed to the old backend (see tenant.enqueue).
		ln.mu.Lock()
		ln.mu.Unlock() //nolint:staticcheck
	}
	t.drainInto(old)
	s.log.lifecycle("backend swap", "tenant", tenantName, "from", old.queueName, "to", queueName)
	return nil
}

// Backend reports tenantName's current queue entry name, for tests and
// stats.
func (s *Service) Backend(tenantName string) string {
	t, _ := s.tenantFor(tenantName, false)
	if t == nil {
		return ""
	}
	return t.be.Load().queueName
}
