package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Job is the externally visible description of a submitted job.
type Job struct {
	ID      uint64          `json:"id"`
	Tenant  string          `json:"tenant"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Attempts counts deliveries, including the one in flight when the
	// job is leased: a freshly submitted job has 0, the first lease makes
	// it 1, and a job dead-letters once the retry policy refuses attempt
	// Attempts+1.
	Attempts    int       `json:"attempts"`
	SubmittedAt time.Time `json:"submitted_at"`
}

// Lease is one delivery of a job to a worker: the job plus the token the
// worker must present to Ack or Nack it, which no other lease of the
// service carries, before or after a restart, and the deadline after which
// the scanner reclaims the lease and redelivers the job.
type Lease struct {
	Job
	Token    uint64    `json:"token"`
	Deadline time.Time `json:"deadline"`
}

// Service errors. BackpressureError is a type (it carries the retry hint);
// the rest are sentinels callers match with errors.Is.
var (
	// ErrDraining is returned by Submit and Lease once graceful shutdown
	// has fenced new work.
	ErrDraining = errors.New("service: draining, not accepting new work")
	// ErrStopped is returned once shutdown has completed.
	ErrStopped = errors.New("service: stopped")
	// ErrNoSuchLease is returned by Ack and Nack for a token that is
	// unknown, already settled, or reclaimed by the deadline scanner —
	// the exactly-once-ack guarantee is exactly this error firing on
	// every settlement attempt after the first.
	ErrNoSuchLease = errors.New("service: unknown, expired, or already-settled lease token")
	// ErrTenantLimit is returned by Submit when creating the job's tenant
	// would exceed Config.MaxTenants. HTTP maps it to 429.
	ErrTenantLimit = errors.New("service: tenant limit reached")
)

// BackpressureError is returned by Submit when a tenant's in-flight depth
// (queued + delayed + leased jobs) has reached its quota. HTTP maps it to
// 429 with a Retry-After header.
type BackpressureError struct {
	Tenant     string
	Depth      int64
	Quota      int64
	RetryAfter time.Duration
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota (%d in flight, quota %d); retry after %s",
		e.Tenant, e.Depth, e.Quota, e.RetryAfter)
}

// job is the internal record. A job's place says where it is in its
// lifecycle: its tenant's queue, a slot's lease table, the delay heap
// (whose entry holds the redelivery time) or the dead-letter list; a
// settled job is in none of them. Stats derives its per-state counts from
// those structures and the tenant's depth. A job is in one place at a
// time, and it moves only through a synchronizing handoff (an enqueue and
// its dequeue, a token's put and its take, a push and pop under dmu), so
// the goroutine that took it owns the delivery count without a lock. The
// identity fields (id, tenant, payload, submitted) are immutable after
// construction, and the only readers of a job outside its place, the
// checkpoint after the drain and DeadLetters after dlqMu, see it quiescent.
type job struct {
	id        uint64
	tenant    *tenant
	payload   json.RawMessage
	submitted time.Time

	attempts  int
	delivered bool // first delivery observed (lease-latency series)

	// The fields take 80 B; the pad keeps the record in the 96 B size
	// class. The HTTP handlers allocate about ten short-lived 80 B objects
	// per job cycle and none of 96 B, and with an 80 B record, whose
	// queued jobs then share spans with that garbage, perfbench's
	// jobs-http p99 read 17% higher (DESIGN §12, *Jobs*).
	_ [8]byte
}

// external renders the job in its public shape. Callers must own the job
// or otherwise have it quiescent.
func (j *job) external() Job {
	return Job{
		ID:          j.id,
		Tenant:      j.tenant.name,
		Payload:     j.payload,
		Attempts:    j.attempts,
		SubmittedAt: j.submitted,
	}
}
