package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/service"
)

// fakeClock is a mutex-guarded manual clock for Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// immediateRetry is a budget-only policy: requeue with no delay until the
// budget, then dead-letter. Tests use it to drive DLQ paths without
// waiting out backoff windows.
func immediateRetry(budget int) policy.RetryPolicy {
	return policy.AbortBudget{Budget: budget, Inner: policy.ExponentialBackoff{}}
}

func mustService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestSubmitLeaseAckRoundtrip(t *testing.T) {
	s := mustService(t, service.Config{})
	var tokens []uint64
	for i := 0; i < 3; i++ {
		j, err := s.Submit("acme", json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if j.ID == 0 || j.Tenant != "acme" {
			t.Fatalf("Submit %d returned %+v", i, j)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		l, ok, err := s.Lease("acme")
		if err != nil || !ok {
			t.Fatalf("Lease %d: ok=%v err=%v", i, ok, err)
		}
		if l.Attempts != 1 {
			t.Fatalf("lease %d: attempts = %d, want 1", i, l.Attempts)
		}
		if seen[l.ID] {
			t.Fatalf("job %d delivered twice", l.ID)
		}
		seen[l.ID] = true
		tokens = append(tokens, l.Token)
	}
	if _, ok, err := s.Lease("acme"); ok || err != nil {
		t.Fatalf("Lease on empty queue: ok=%v err=%v", ok, err)
	}
	for _, tok := range tokens {
		if err := s.Ack(tok); err != nil {
			t.Fatalf("Ack(%d): %v", tok, err)
		}
	}
	// Exactly-once ack: every second settlement fails.
	for _, tok := range tokens {
		if err := s.Ack(tok); !errors.Is(err, service.ErrNoSuchLease) {
			t.Fatalf("double Ack(%d) = %v, want ErrNoSuchLease", tok, err)
		}
		if err := s.Nack(tok); !errors.Is(err, service.ErrNoSuchLease) {
			t.Fatalf("Nack after Ack(%d) = %v, want ErrNoSuchLease", tok, err)
		}
	}
	st := s.Stats()
	if st.Submits != 3 || st.Leases != 3 || st.Acks != 3 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want submits=leases=acks=3, in_flight=0", st)
	}
}

func TestLeaseExpiryRedelivery(t *testing.T) {
	clk := newFakeClock()
	s := mustService(t, service.Config{
		LeaseTTL: time.Minute,
		Backoff:  immediateRetry(10),
		Now:      clk.Now,
	})
	if _, err := s.Submit("acme", json.RawMessage(`"job"`)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	l1, ok, _ := s.Lease("acme")
	if !ok {
		t.Fatal("first lease came back empty")
	}
	// Before the TTL nothing is reclaimed.
	clk.Advance(30 * time.Second)
	if n := s.ScanOnce(clk.Now()); n != 0 {
		t.Fatalf("ScanOnce before expiry reclaimed %d leases", n)
	}
	// Past the TTL the scanner reclaims and requeues.
	clk.Advance(31 * time.Second)
	if n := s.ScanOnce(clk.Now()); n != 1 {
		t.Fatalf("ScanOnce after expiry reclaimed %d leases, want 1", n)
	}
	l2, ok, _ := s.Lease("acme")
	if !ok {
		t.Fatal("job was not redelivered after expiry")
	}
	if l2.ID != l1.ID || l2.Attempts != 2 {
		t.Fatalf("redelivery = id %d attempts %d, want id %d attempts 2", l2.ID, l2.Attempts, l1.ID)
	}
	// The expired token is dead; the new one settles the job.
	if err := s.Ack(l1.Token); !errors.Is(err, service.ErrNoSuchLease) {
		t.Fatalf("Ack(expired token) = %v, want ErrNoSuchLease", err)
	}
	if err := s.Ack(l2.Token); err != nil {
		t.Fatalf("Ack(fresh token): %v", err)
	}
	st := s.Stats()
	if st.Expired != 1 || st.Redeliveries != 1 {
		t.Fatalf("stats = %+v, want expired=1 redeliveries=1", st)
	}
}

func TestNackDeadLettersAfterBudget(t *testing.T) {
	const budget = 3
	s := mustService(t, service.Config{Backoff: immediateRetry(budget)})
	j, err := s.Submit("acme", json.RawMessage(`"poison"`))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for attempt := 1; ; attempt++ {
		l, ok, err := s.Lease("acme")
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if !ok {
			break // dead-lettered, no longer delivered
		}
		if l.Attempts != attempt {
			t.Fatalf("attempt %d delivered with Attempts=%d", attempt, l.Attempts)
		}
		if attempt > budget {
			t.Fatalf("job delivered %d times, budget is %d", attempt, budget)
		}
		if err := s.Nack(l.Token); err != nil {
			t.Fatalf("Nack attempt %d: %v", attempt, err)
		}
	}
	dead := s.DeadLetters("acme")
	if len(dead) != 1 || dead[0].ID != j.ID || dead[0].Attempts != budget {
		t.Fatalf("dead letters = %+v, want job %d with %d attempts", dead, j.ID, budget)
	}
	st := s.Stats()
	if st.DLQ != 1 || st.Nacks != uint64(budget) || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want dlq=1 nacks=%d in_flight=0", st, budget)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Dead != 1 || st.Tenants[0].Depth != 0 {
		t.Fatalf("tenant stats = %+v, want dead=1 depth=0", st.Tenants)
	}
}

func TestBackpressure(t *testing.T) {
	s := mustService(t, service.Config{MaxInFlight: 2, Backoff: immediateRetry(5)})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("acme", nil); err != nil {
			t.Fatalf("Submit %d under quota: %v", i, err)
		}
	}
	_, err := s.Submit("acme", nil)
	var bp *service.BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("Submit over quota = %v, want *BackpressureError", err)
	}
	if bp.Quota != 2 || bp.RetryAfter <= 0 {
		t.Fatalf("backpressure error = %+v", bp)
	}
	// Tenants are isolated: another tenant still has room.
	if _, err := s.Submit("other", nil); err != nil {
		t.Fatalf("Submit to second tenant: %v", err)
	}
	// Settling a job frees quota.
	l, ok, _ := s.Lease("acme")
	if !ok {
		t.Fatal("lease under backpressure came back empty")
	}
	if err := s.Ack(l.Token); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if _, err := s.Submit("acme", nil); err != nil {
		t.Fatalf("Submit after ack freed quota: %v", err)
	}
	if st := s.Stats(); st.Rejects != 1 {
		t.Fatalf("stats rejects = %d, want 1", st.Rejects)
	}
}

func TestCheckpointRestoreRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sbqd.json")
	cfg := service.Config{SnapshotPath: path, Backoff: immediateRetry(10)}

	s1 := mustService(t, cfg)
	payloads := map[uint64]string{}
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf(`{"i":%d}`, i)
		j, err := s1.Submit("acme", json.RawMessage(p))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		payloads[j.ID] = p
	}
	j5, err := s1.Submit("beta", json.RawMessage(`"b"`))
	if err != nil {
		t.Fatalf("Submit beta: %v", err)
	}
	payloads[j5.ID] = `"b"`

	// Leave one lease unsettled so shutdown has to force-expire it.
	if _, ok, _ := s1.Lease("acme"); !ok {
		t.Fatal("lease came back empty")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s1.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a hung lease = %v, want DeadlineExceeded", err)
	}
	if _, err := s1.Submit("acme", nil); !errors.Is(err, service.ErrStopped) {
		t.Fatalf("Submit after shutdown = %v, want ErrStopped", err)
	}

	// Restart: every unsettled job must come back, ids and payloads intact.
	s2 := mustService(t, cfg)
	got := map[uint64]string{}
	for _, tenant := range []string{"acme", "beta"} {
		for {
			l, ok, err := s2.Lease(tenant)
			if err != nil {
				t.Fatalf("Lease after restore: %v", err)
			}
			if !ok {
				break
			}
			if _, dup := got[l.ID]; dup {
				t.Fatalf("job %d delivered twice after restore", l.ID)
			}
			got[l.ID] = string(l.Payload)
			if err := s2.Ack(l.Token); err != nil {
				t.Fatalf("Ack after restore: %v", err)
			}
		}
	}
	if len(got) != len(payloads) {
		t.Fatalf("restored %d jobs, want %d (got %v)", len(got), len(payloads), got)
	}
	for id, p := range payloads {
		if got[id] != p {
			t.Fatalf("job %d payload = %q, want %q", id, got[id], p)
		}
	}
	// Fresh ids continue past the restored namespace.
	j, err := s2.Submit("acme", nil)
	if err != nil {
		t.Fatalf("Submit after restore: %v", err)
	}
	if j.ID <= j5.ID {
		t.Fatalf("post-restore id %d not beyond pre-restart ids (max %d)", j.ID, j5.ID)
	}
}

// TestRestoreDuplicateJobID restores a checkpoint that lists one job id
// twice in a tenant and once more in another tenant. Job ids are
// service-wide, so the first entry wins: the job is delivered once, with
// the first entry's payload, the later entries are dropped, and every quota
// slot comes back once the tenants are drained.
func TestRestoreDuplicateJobID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sbqd.json")
	checkpoint := `{"version":1,"taken":"2026-01-01T00:00:00Z","next_id":8,"next_token":0,"tenants":[
		{"name":"acme","jobs":[
			{"id":7,"payload":"first","attempts":0,"submitted_at":"2026-01-01T00:00:00Z"},
			{"id":7,"payload":"second","attempts":0,"submitted_at":"2026-01-01T00:00:00Z"}]},
		{"name":"beta","jobs":[
			{"id":7,"payload":"third","attempts":0,"submitted_at":"2026-01-01T00:00:00Z"},
			{"id":8,"payload":"eighth","attempts":0,"submitted_at":"2026-01-01T00:00:00Z"}]}]}`
	if err := os.WriteFile(path, []byte(checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustService(t, service.Config{SnapshotPath: path})
	defer s.Shutdown(context.Background())
	want := map[string][]string{"acme": {`7 "first"`}, "beta": {`8 "eighth"`}}
	for tenant, w := range want {
		var got []string
		for {
			l, ok, err := s.Lease(tenant)
			if err != nil {
				t.Fatalf("Lease %s: %v", tenant, err)
			}
			if !ok {
				break
			}
			got = append(got, fmt.Sprintf("%d %s", l.ID, l.Payload))
			if err := s.Ack(l.Token); err != nil {
				t.Fatalf("Ack %s: %v", tenant, err)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("%s delivered %q, want %q", tenant, got, w)
		}
	}
	for _, ts := range s.Stats().Tenants {
		if ts.Depth != 0 || ts.Queued != 0 || ts.Leased != 0 || ts.Delayed != 0 {
			t.Errorf("tenant %s after draining: %+v, want depth 0 and nothing queued, leased or delayed", ts.Tenant, ts)
		}
	}
}

// TestRestoreDuplicateTenant restores a checkpoint that lists one tenant
// twice, with a different job in each entry. Both entries' jobs belong to
// the one tenant: both are delivered, and its depth counts both until they
// are acked.
func TestRestoreDuplicateTenant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sbqd.json")
	checkpoint := `{"version":1,"taken":"2026-01-01T00:00:00Z","next_id":8,"next_token":0,"tenants":[
		{"name":"acme","jobs":[{"id":7,"payload":"seventh","attempts":0,"submitted_at":"2026-01-01T00:00:00Z"}]},
		{"name":"acme","jobs":[{"id":8,"payload":"eighth","attempts":0,"submitted_at":"2026-01-01T00:00:00Z"}]}]}`
	if err := os.WriteFile(path, []byte(checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustService(t, service.Config{SnapshotPath: path})
	defer s.Shutdown(context.Background())
	depth := func() int64 {
		st := s.Stats().Tenants
		if len(st) != 1 || st[0].Tenant != "acme" {
			t.Fatalf("tenants after restore: %+v, want acme alone", st)
		}
		return st[0].Depth
	}
	if d := depth(); d != 2 {
		t.Fatalf("acme depth after restore = %d, want 2", d)
	}
	var got []string
	for {
		l, ok, err := s.Lease("acme")
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, fmt.Sprintf("%d %s", l.ID, l.Payload))
		if err := s.Ack(l.Token); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	sort.Strings(got) // the default queue orders jobs per producer only
	if want := []string{`7 "seventh"`, `8 "eighth"`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("acme delivered %q, want %q", got, want)
	}
	if d := depth(); d != 0 {
		t.Errorf("acme depth after the acks = %d, want 0", d)
	}
}

// TestPreRestartTokenRejected: a token leased before a forced shutdown is
// dead after the restart. Its job comes back and is leased under a fresh
// token; settling the old token gets ErrNoSuchLease and leaves the fresh
// lease outstanding. The checkpoint's next_token bounds every token issued
// before it, and restore makes every slot mint above it. That must also
// hold for a checkpoint whose next_token is the last token of one
// sequential counter, as services before per-slot tokens wrote it: a
// worker may hold any token up to it.
func TestPreRestartTokenRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sbqd.json")
	cfg := service.Config{SnapshotPath: path, Backoff: immediateRetry(10)}
	s1 := mustService(t, cfg)
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := s1.Submit("acme", json.RawMessage(`"x"`)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	var old []uint64
	for i := 0; i < n; i++ {
		l, ok, err := s1.Lease("acme")
		if err != nil || !ok {
			t.Fatalf("Lease: ok=%v err=%v", ok, err)
		}
		old = append(old, l.Token)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // force-expire the leases: their jobs go into the checkpoint
	if err := s1.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}

	s2 := mustService(t, cfg)
	defer s2.Shutdown(context.Background())
	var fresh []service.Lease
	for {
		l, ok, err := s2.Lease("acme")
		if err != nil {
			t.Fatalf("Lease after restore: %v", err)
		}
		if !ok {
			break
		}
		fresh = append(fresh, l)
	}
	if len(fresh) != n {
		t.Fatalf("%d jobs leased after restore, want %d", len(fresh), n)
	}
	for _, tok := range old {
		for _, settle := range []func(uint64) error{s2.Ack, s2.Nack} {
			if err := settle(tok); !errors.Is(err, service.ErrNoSuchLease) {
				t.Fatalf("settling pre-restart token %d = %v, want ErrNoSuchLease", tok, err)
			}
		}
	}
	if got := s2.Stats().InFlight; got != n {
		t.Fatalf("%d leases outstanding after settling the pre-restart tokens, want %d", got, n)
	}
	for _, l := range fresh {
		if err := s2.Ack(l.Token); err != nil {
			t.Fatalf("Ack(fresh token %d): %v", l.Token, err)
		}
	}

	// A checkpoint written with a sequential counter: tokens 1..200 were
	// issued, and job 7 was leased once before the shutdown requeued it.
	const lastToken = 200
	seqPath := filepath.Join(t.TempDir(), "sbqd.json")
	checkpoint := fmt.Sprintf(`{"version":1,"taken":"2026-01-01T00:00:00Z","next_id":7,"next_token":%d,"tenants":[
		{"name":"acme","jobs":[{"id":7,"payload":"seventh","attempts":1,"submitted_at":"2026-01-01T00:00:00Z"}]}]}`, lastToken)
	if err := os.WriteFile(seqPath, []byte(checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := mustService(t, service.Config{SnapshotPath: seqPath})
	defer s3.Shutdown(context.Background())
	l, ok, err := s3.Lease("acme")
	if err != nil || !ok || l.ID != 7 {
		t.Fatalf("Lease after restore = job %d, ok=%v, err=%v; want job 7", l.ID, ok, err)
	}
	if l.Token <= lastToken {
		t.Fatalf("token %d issued after restoring next_token %d", l.Token, lastToken)
	}
	for tok := uint64(1); tok <= lastToken; tok++ {
		if err := s3.Ack(tok); !errors.Is(err, service.ErrNoSuchLease) {
			t.Fatalf("Ack(pre-restart token %d) = %v, want ErrNoSuchLease", tok, err)
		}
	}
	if err := s3.Ack(l.Token); err != nil {
		t.Fatalf("Ack(fresh token %d): %v", l.Token, err)
	}
}

// TestForceExpireCheckpointPacing pins the force-expire clock discipline:
// a shutdown that hits its drain deadline force-expires outstanding leases,
// and the redelivery pacing written to the checkpoint must be computed from
// the service clock — not from a fabricated far-future expiry cutoff. A
// positive-backoff job caught by the force-expire must be deliverable
// promptly after restore, not stranded in the delay heap.
func TestForceExpireCheckpointPacing(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "sbqd.json")
	cfg := service.Config{
		SnapshotPath: path,
		Now:          clk.Now,
		// The default policy shape: positive, bounded delays. Max 256
		// cycles x 1ms unit = at most ~256ms of pacing.
		Backoff:     policy.AbortBudget{Budget: 10, Inner: policy.ExponentialBackoff{Base: 4, Max: 256}},
		BackoffUnit: time.Millisecond,
	}

	s1 := mustService(t, cfg)
	j, err := s1.Submit("acme", json.RawMessage(`"slow"`))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, ok, _ := s1.Lease("acme"); !ok {
		t.Fatal("lease came back empty")
	}
	// An already-expired context: the drain force-expires immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}

	// Restore on the same clock, advanced past any legitimate backoff
	// window (1s >> 256ms) — but ~41 days short of the 1000h future the
	// old fake-clock force-expiry would have persisted.
	clk.Advance(time.Second)
	s2 := mustService(t, cfg)
	s2.ScanOnce(clk.Now())
	l, ok, err := s2.Lease("acme")
	if err != nil || !ok {
		t.Fatalf("Lease after restore: ok=%v err=%v (force-expired job stranded in the delay heap?)", ok, err)
	}
	if l.ID != j.ID {
		t.Fatalf("restored job id = %d, want %d", l.ID, j.ID)
	}
	if err := s2.Ack(l.Token); err != nil {
		t.Fatalf("Ack: %v", err)
	}
}

func TestSwapBackendLosesNothing(t *testing.T) {
	s := mustService(t, service.Config{Queue: "Sharded-FAA", Shards: 2})
	const n = 32
	want := map[uint64]bool{}
	for i := 0; i < n; i++ {
		j, err := s.Submit("acme", nil)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		want[j.ID] = true
	}
	if err := s.SwapBackend("acme", "Sharded-SBQ"); err != nil {
		t.Fatalf("SwapBackend: %v", err)
	}
	if got := s.Backend("acme"); got != "Sharded-SBQ" {
		t.Fatalf("Backend = %q after swap, want Sharded-SBQ", got)
	}
	for i := 0; i < n; i++ {
		l, ok, err := s.Lease("acme")
		if err != nil || !ok {
			t.Fatalf("Lease %d after swap: ok=%v err=%v", i, ok, err)
		}
		if !want[l.ID] {
			t.Fatalf("unknown or duplicate job %d after swap", l.ID)
		}
		delete(want, l.ID)
		if err := s.Ack(l.Token); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d jobs lost across the swap: %v", len(want), want)
	}
	if err := s.SwapBackend("acme", "no-such-queue"); err == nil {
		t.Fatal("SwapBackend to an unknown entry succeeded")
	}
	if err := s.SwapBackend("ghost", "Sharded-FAA"); err == nil {
		t.Fatal("SwapBackend on an unknown tenant succeeded")
	}
}

// TestSwapBackendConcurrent races swaps against each other and against
// submits: serialized swaps must never strand a drained id in an abandoned
// backend, so every accepted job stays leaseable.
func TestSwapBackendConcurrent(t *testing.T) {
	s := mustService(t, service.Config{Queue: "Sharded-FAA", Shards: 2})
	want := make(map[uint64]bool)
	var wmu sync.Mutex

	// Create the tenant before the racing swappers look it up.
	j0, err := s.Submit("acme", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want[j0.ID] = true

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				j, err := s.Submit("acme", nil)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				wmu.Lock()
				want[j.ID] = true
				wmu.Unlock()
			}
		}()
	}
	entries := []string{"Sharded-SBQ", "Sharded-FAA"}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := s.SwapBackend("acme", entries[(g+i)%len(entries)]); err != nil {
					t.Errorf("SwapBackend: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for {
		l, ok, err := s.Lease("acme")
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if !ok {
			break
		}
		wmu.Lock()
		if !want[l.ID] {
			wmu.Unlock()
			t.Fatalf("unknown or duplicate job %d", l.ID)
		}
		delete(want, l.ID)
		wmu.Unlock()
		if err := s.Ack(l.Token); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d jobs unreachable after concurrent swaps: %v", len(want), want)
	}
}

func TestSwapBackendAfterShutdownFenced(t *testing.T) {
	s := mustService(t, service.Config{})
	if _, err := s.Submit("acme", nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.SwapBackend("acme", "Sharded-SBQ"); !errors.Is(err, service.ErrStopped) {
		t.Fatalf("SwapBackend after shutdown = %v, want ErrStopped", err)
	}
}

func TestTenantLimit(t *testing.T) {
	s := mustService(t, service.Config{MaxTenants: 2})
	for _, tn := range []string{"a", "b"} {
		if _, err := s.Submit(tn, nil); err != nil {
			t.Fatalf("Submit %q under the cap: %v", tn, err)
		}
	}
	if _, err := s.Submit("c", nil); !errors.Is(err, service.ErrTenantLimit) {
		t.Fatalf("Submit past the tenant cap = %v, want ErrTenantLimit", err)
	}
	// Existing tenants still accept work.
	if _, err := s.Submit("a", nil); err != nil {
		t.Fatalf("Submit to existing tenant at the cap: %v", err)
	}
	// A negative cap means unlimited.
	u := mustService(t, service.Config{MaxTenants: -1})
	for i := 0; i < 8; i++ {
		if _, err := u.Submit(fmt.Sprintf("t%d", i), nil); err != nil {
			t.Fatalf("Submit with unlimited tenants: %v", err)
		}
	}
}

// TestShutdownReportsDrainAndCheckpointErrors: when the drain times out AND
// the checkpoint fails, both errors surface through the returned error.
func TestShutdownReportsDrainAndCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	// Squat a directory on the checkpoint's temp-file path: New's restore
	// still sees a cleanly missing snapshot, but the checkpoint's
	// WriteFile of snap.json.tmp must fail.
	path := filepath.Join(dir, "snap.json")
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	s := mustService(t, service.Config{SnapshotPath: path})
	if _, err := s.Submit("acme", nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, ok, _ := s.Lease("acme"); !ok {
		t.Fatal("lease came back empty")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain deadline already passed: force-expiry guaranteed
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want the drain's context.Canceled to survive the checkpoint failure", err)
	}
	if !strings.Contains(fmt.Sprint(err), "checkpoint") {
		t.Fatalf("Shutdown = %v, want the checkpoint failure reported too", err)
	}
}

func TestGracefulShutdownDrainsCleanly(t *testing.T) {
	s := mustService(t, service.Config{})
	if _, err := s.Submit("acme", nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	l, ok, _ := s.Lease("acme")
	if !ok {
		t.Fatal("lease came back empty")
	}
	done := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		done <- s.Ack(l.Token)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a settling worker = %v, want clean drain", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Ack during drain: %v", err)
	}
	if err := s.Shutdown(ctx); !errors.Is(err, service.ErrAlreadyDraining) {
		t.Fatalf("second Shutdown = %v, want ErrAlreadyDraining", err)
	}
	if _, _, err := s.Lease("acme"); !errors.Is(err, service.ErrStopped) {
		t.Fatalf("Lease after shutdown = %v, want ErrStopped", err)
	}
}

func TestNewRejectsUnknownQueue(t *testing.T) {
	if _, err := service.New(service.Config{Queue: "no-such-queue"}); err == nil {
		t.Fatal("New with an unknown queue entry succeeded")
	}
}
