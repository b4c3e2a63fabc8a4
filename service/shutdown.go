package service

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
)

// ErrAlreadyDraining is returned by Shutdown when another Shutdown is
// already in progress (or has completed).
var ErrAlreadyDraining = errors.New("service: shutdown already in progress")

// Shutdown drains the service gracefully:
//
//  1. Fence: Submit and Lease start returning ErrDraining (in-flight
//     calls are waited out first, so the fence is exact).
//  2. Drain: wait for every outstanding lease to settle, running scanner
//     passes so naturally-expiring leases are reclaimed meanwhile. If ctx
//     expires first, force-expire the stragglers (their jobs go back to
//     queued/delayed/dead by the usual redelivery rules — nothing is
//     lost, the work just outlives this process).
//  3. Stop: Ack/Nack start returning ErrStopped, then every unsettled
//     job is checkpointed to Config.SnapshotPath (when set) so the next
//     New redelivers it.
//
// Shutdown returns nil on a clean drain and ctx.Err() when it had to
// force-expire; the checkpoint is written either way.
func (s *Service) Shutdown(ctx context.Context) error {
	if !s.state.CompareAndSwap(srvServing, srvDraining) {
		return ErrAlreadyDraining
	}
	s.log.lifecycle("shutdown: draining")
	// Wait out every Submit/Lease/SwapBackend that passed begin before the
	// flip, whichever slot it holds; later ones see srvDraining and never
	// touch the service.
	for i := range s.slots {
		fence := &s.slots[i].fence
		fence.Lock()
		fence.Unlock() //nolint:staticcheck // empty critical section: a barrier
	}

	close(s.scanStop)
	<-s.scanDone

	drainErr := s.drainLeases(ctx)

	s.state.Store(srvStopped)
	s.log.lifecycle("shutdown: stopped", "forced", drainErr != nil)
	if s.cfg.SnapshotPath != "" {
		if err := s.checkpoint(s.cfg.SnapshotPath); err != nil {
			// Keep the drain outcome visible alongside the checkpoint
			// failure: the caller needs to know both that leases were
			// force-expired and that their jobs were not persisted.
			return errors.Join(drainErr, err)
		}
	}
	return drainErr
}

// drainLeases waits for the in-flight sum to reach zero, reclaiming
// naturally-expiring leases itself (the background scanner is stopped).
// At the ctx deadline it force-expires everything still outstanding.
func (s *Service) drainLeases(ctx context.Context) error {
	poll := s.cfg.ScanInterval / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	for s.inFlight() > 0 {
		select {
		case <-ctx.Done():
			// Force-expire: reclaim every outstanding lease regardless of
			// deadline, then wait for the redeliver transitions (which run
			// synchronously in ForceExpire) to settle the sum to zero.
			// ForceExpire paces redelivery from the real clock, so the
			// checkpoint records NotBefore near now — not a fabricated
			// future that would strand restored jobs in the delay heap.
			s.ForceExpire()
			for s.inFlight() > 0 {
				time.Sleep(time.Millisecond)
			}
			return ctx.Err()
		case <-time.After(poll):
			s.ScanOnce(s.now())
		}
	}
	return nil
}

// TenantStats is one tenant's depth breakdown.
type TenantStats struct {
	Tenant  string `json:"tenant"`
	Queue   string `json:"queue"` // current backend entry name
	Depth   int64  `json:"depth"` // queued + delayed + leased
	Queued  int    `json:"queued"`
	Leased  int    `json:"leased"`
	Delayed int    `json:"delayed"`
	Dead    int    `json:"dead"`
}

// StatsSnapshot is the service-wide view GET /v1/stats renders.
type StatsSnapshot struct {
	State    string `json:"state"`
	InFlight int64  `json:"in_flight"` // outstanding lease tokens

	Submits      uint64 `json:"submits"`
	Leases       uint64 `json:"leases"`
	Redeliveries uint64 `json:"redeliveries"`
	Acks         uint64 `json:"acks"`
	Nacks        uint64 `json:"nacks"`
	Expired      uint64 `json:"expired"`
	DLQ          uint64 `json:"dlq"`
	Rejects      uint64 `json:"rejects"`

	// Latency quantiles in nanoseconds, from the obs series: lease =
	// submit→first delivery, ack = submit→ack. Zero when nothing was
	// recorded.
	LeaseP50  float64 `json:"lease_p50_ns"`
	LeaseP99  float64 `json:"lease_p99_ns"`
	LeaseP999 float64 `json:"lease_p999_ns"`
	AckP50    float64 `json:"ack_p50_ns"`
	AckP99    float64 `json:"ack_p99_ns"`
	AckP999   float64 `json:"ack_p999_ns"`

	Tenants []TenantStats `json:"tenants"`
}

// Stats snapshots the service. Counter and quantile fields read the root
// telemetry scope (see Config.Recorder): every tenant of this Service, and
// of any earlier Service that shared the same *obs.Stats recorder.
func (s *Service) Stats() StatsSnapshot {
	out := StatsSnapshot{InFlight: s.inFlight()}
	switch s.state.Load() {
	case srvServing:
		out.State = "serving"
	case srvDraining:
		out.State = "draining"
	default:
		out.State = "stopped"
	}
	snap := s.stats.Snapshot()
	out.Submits = snap.Counter(obs.SrvSubmits)
	out.Leases = snap.Counter(obs.SrvLeases)
	out.Redeliveries = snap.Counter(obs.SrvRedeliveries)
	out.Acks = snap.Counter(obs.SrvAcks)
	out.Nacks = snap.Counter(obs.SrvNacks)
	out.Expired = snap.Counter(obs.SrvExpired)
	out.DLQ = snap.Counter(obs.SrvDLQ)
	out.Rejects = snap.Counter(obs.SrvRejects)
	lease := snap.Series[obs.LeaseLatency]
	ack := snap.Series[obs.AckLatency]
	out.LeaseP50, out.LeaseP99, out.LeaseP999 =
		lease.Quantile(0.50), lease.Quantile(0.99), lease.Quantile(0.999)
	out.AckP50, out.AckP99, out.AckP999 =
		ack.Quantile(0.50), ack.Quantile(0.99), ack.Quantile(0.999)

	// The per-state counts are derived off the hot path: leased jobs from
	// one walk of the slots' lease tables, delayed ones from the delay
	// heap, and queued ones as the rest of the depth. A tenant's depth is
	// read before its dead-letter list: see deadLetter.
	leased := map[*tenant]int{}
	for i := range s.slots {
		s.slots[i].walk(func(_ uint64, e leaseEntry) { leased[e.j.tenant]++ })
	}
	delayed := s.delayedJobs()
	for _, t := range s.tenantList() {
		ts := TenantStats{
			Tenant:  t.name,
			Queue:   t.be.Load().queueName,
			Depth:   t.depth.Load(),
			Leased:  leased[t],
			Delayed: len(delayed[t]),
		}
		ts.Queued = max(0, int(ts.Depth)-ts.Leased-ts.Delayed)
		ts.Dead = len(t.deadList())
		out.Tenants = append(out.Tenants, ts)
	}
	return out
}

// DeadLetters returns tenantName's dead-letter queue, oldest first.
func (s *Service) DeadLetters(tenantName string) []Job {
	t, _ := s.tenantFor(tenantName, false)
	if t == nil {
		return nil
	}
	dead := t.deadList()
	out := make([]Job, len(dead))
	for i, j := range dead {
		out[i] = j.external() // dead jobs are quiescent
	}
	return out
}
