package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// snapshotVersion guards the checkpoint format. Bump on incompatible
// changes; restore rejects unknown versions loudly instead of silently
// dropping jobs.
const snapshotVersion = 1

// snapshot is the on-disk checkpoint: every unsettled job, per tenant, in
// redelivery order.
type snapshot struct {
	Version int       `json:"version"`
	Taken   time.Time `json:"taken"`
	NextID  uint64    `json:"next_id"`
	// NextToken is an upper bound on every lease token issued before the
	// checkpoint, and restore makes every slot mint above it: a worker
	// holding a pre-restart token must get ErrNoSuchLease from the
	// restarted service, never a collision with a fresh token (which would
	// ack someone else's job). Tokens are unique, not monotonic: each slot
	// mints its own increasing sequence (see slot).
	NextToken uint64       `json:"next_token"`
	Tenants   []snapTenant `json:"tenants"`
}

type snapTenant struct {
	Name string    `json:"name"`
	Jobs []snapJob `json:"jobs"` // pending jobs, queue order first
	Dead []snapJob `json:"dead,omitempty"`
}

type snapJob struct {
	ID          uint64          `json:"id"`
	Payload     json.RawMessage `json:"payload,omitempty"`
	Attempts    int             `json:"attempts"`
	SubmittedAt time.Time       `json:"submitted_at"`
	// NotBefore, when set and still in the future at restore time, puts
	// the job back in the delay heap instead of the queue.
	NotBefore time.Time `json:"not_before,omitempty"`
}

// checkpoint writes every unsettled job to path (tmp + rename, so a crash
// mid-write leaves the previous checkpoint intact). Caller guarantees
// quiescence: state is srvStopped, the fence passed, scanner stopped, the
// in-flight sum zero.
func (s *Service) checkpoint(path string) error {
	snap := snapshot{
		Version:   snapshotVersion,
		Taken:     s.now(),
		NextID:    s.nextID.Load(),
		NextToken: s.maxToken(),
	}

	delayed := s.delayedJobs()
	for _, t := range s.tenantList() {
		st := snapTenant{Name: t.name}

		// Queue order first: drain the backend (quiescent, so two empty
		// sweeps mean empty) and emit jobs in dequeue order.
		cons := t.be.Load().lanes[0].cons
		for empty := 0; empty < 2; {
			j, ok := cons.Dequeue()
			if !ok {
				empty++
				continue
			}
			empty = 0
			st.Jobs = append(st.Jobs, snapJobOf(j))
		}

		// Then the tenant's delayed jobs, sorted by id for determinism.
		// Leases were drained to zero first, so the queue and the delay
		// heap hold every unsettled job.
		rest := delayed[t]
		sort.Slice(rest, func(i, k int) bool { return rest[i].j.id < rest[k].j.id })
		for _, e := range rest {
			sj := snapJobOf(e.j)
			sj.NotBefore = e.at
			st.Jobs = append(st.Jobs, sj)
		}
		for _, j := range t.deadList() {
			st.Dead = append(st.Dead, snapJobOf(j))
		}
		if len(st.Jobs) > 0 || len(st.Dead) > 0 {
			snap.Tenants = append(snap.Tenants, st)
		}
	}

	// Compact on purpose: MarshalIndent would reformat RawMessage
	// payloads, breaking byte-for-byte payload round-trips.
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("service: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("service: checkpoint dir: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: committing checkpoint: %w", err)
	}
	return nil
}

func snapJobOf(j *job) snapJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return snapJob{
		ID:          j.id,
		Payload:     j.payload,
		Attempts:    j.attempts,
		SubmittedAt: j.submitted,
	}
}

// restore loads a checkpoint written by a previous process's Shutdown.
// A missing file is not an error (fresh start); a malformed or
// wrong-version file is, loudly — silently dropping persisted jobs would
// defeat the point. Called from New before the scanner starts.
func (s *Service) restore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: reading checkpoint: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("service: decoding checkpoint %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("service: checkpoint %s has version %d, want %d", path, snap.Version, snapshotVersion)
	}
	s.nextID.Store(snap.NextID)
	startSlots(s.slots, snap.NextToken)
	now := s.now()
	restored := 0
	tenants := map[string]*tenant{}
	// Job ids are service-wide. A checkpoint that lists one id twice (this
	// service never writes one) restores its first entry only: restoring
	// both would deliver the job twice.
	seen := map[uint64]bool{}
	first := func(id uint64) bool {
		if seen[id] {
			return false
		}
		seen[id] = true
		return true
	}
	for _, st := range snap.Tenants {
		// A tenant listed twice (this service never writes one) collects
		// the jobs of every entry: a fresh tenant per entry would drop the
		// jobs already restored into the earlier one.
		t := tenants[st.Name]
		if t == nil {
			var err error
			if t, err = s.newTenant(st.Name, s.cfg.Queue); err != nil {
				return err
			}
			tenants[st.Name] = t
		}
		for _, sj := range st.Jobs {
			if !first(sj.ID) {
				continue
			}
			restored++
			j := &job{
				id:        sj.ID,
				tenant:    t,
				payload:   sj.Payload,
				submitted: sj.SubmittedAt,
				attempts:  sj.Attempts,
				delivered: sj.Attempts > 0,
			}
			t.depth.Add(1)
			if sj.NotBefore.After(now) {
				s.delayed.push(jobAt{at: sj.NotBefore, j: j}) // pre-scanner: no lock needed
			} else {
				t.enqueue(j, t.laneOf(j.id))
			}
		}
		for _, sj := range st.Dead {
			if !first(sj.ID) {
				continue
			}
			t.dead = append(t.dead, &job{
				id:        sj.ID,
				tenant:    t,
				payload:   sj.Payload,
				submitted: sj.SubmittedAt,
				attempts:  sj.Attempts,
				delivered: sj.Attempts > 0,
			})
		}
	}
	s.tenants.Store(&tenants)
	s.log.lifecycle("checkpoint restored", "path", path, "tenants", len(tenants), "jobs", restored)
	return nil
}
