package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/service"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSettledLeasesRetainNoMemory: a settled lease leaves nothing behind.
// Under a 1 h lease TTL no deadline passes during the run, so a lease table
// that kept settled entries until their deadline would grow with every
// cycle; the live heap must instead stay flat across 200k cycles.
func TestSettledLeasesRetainNoMemory(t *testing.T) {
	const cycles = 200_000
	s := mustService(t, service.Config{LeaseTTL: time.Hour})
	defer s.Shutdown(context.Background())
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Submit("acme", nil); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			l, ok, err := s.Lease("acme")
			if err != nil || !ok {
				t.Fatalf("Lease: ok=%v err=%v", ok, err)
			}
			if err := s.Ack(l.Token); err != nil {
				t.Fatalf("Ack: %v", err)
			}
		}
	}
	run(1000) // build the tenant, its queue and the tables' first buckets
	before := liveHeap()
	run(cycles)
	growth := liveHeap() - before
	if growth > 1<<20 {
		t.Fatalf("live heap grew %d bytes over %d settled leases, want < 1 MiB", growth, cycles)
	}
	t.Logf("live heap grew %d bytes over %d settled leases", growth, cycles)
	runtime.KeepAlive(s)
}

// TestConcurrentStress races every path that touches the service's tables:
// workers Submit, Lease, Ack and Nack across several tenants while other
// goroutines run scanner passes that expire every outstanding lease,
// ForceExpire, Stats, /metrics scrapes, backend swaps and tenant creation at
// the MaxTenants cap. The ledger must then show every job acked exactly once
// or dead-lettered, never both, and exactly MaxTenants tenants. Run it with
// -race -count=10.
func TestConcurrentStress(t *testing.T) {
	const (
		tenants    = 3
		maxTenants = 5
		workers    = 6
		cycles     = 200 // per worker
		claimers   = 4   // goroutines racing to create tenants past the cap
	)
	clk := newFakeClock()
	s := mustService(t, service.Config{
		Shards:      2,
		Lanes:       2,
		LeaseTTL:    time.Minute,
		MaxTenants:  maxTenants,
		Backoff:     policy.AbortBudget{Budget: 3, Inner: policy.ExponentialBackoff{Base: 1, Max: 4}},
		BackoffUnit: time.Second,
		Now:         clk.Now,
	})
	defer s.Shutdown(context.Background())

	var (
		ledgerMu  sync.Mutex
		submitted = map[uint64]string{} // job id → tenant
		acks      = map[uint64]int{}
	)
	submit := func(tenant string) error {
		j, err := s.Submit(tenant, json.RawMessage(`1`))
		if err == nil {
			ledgerMu.Lock()
			submitted[j.ID] = tenant
			ledgerMu.Unlock()
		}
		return err
	}
	settle := func(l service.Lease, nack bool) {
		if nack {
			if err := s.Nack(l.Token); err != nil && !errors.Is(err, service.ErrNoSuchLease) {
				t.Errorf("Nack: %v", err)
			}
			return
		}
		switch err := s.Ack(l.Token); {
		case err == nil:
			ledgerMu.Lock()
			acks[l.ID]++
			ledgerMu.Unlock()
		case !errors.Is(err, service.ErrNoSuchLease): // lost the token to the scanner
			t.Errorf("Ack: %v", err)
		}
	}
	// Poison jobs, 1 in 8 by a hash of the id, are nacked on every delivery
	// until they dead-letter. A job id's low bits name the slot that minted
	// it, so the id itself would select by slot.
	poison := func(l service.Lease) bool { return l.ID*0x9E3779B97F4A7C15>>61 == 0 }
	for i := 0; i < tenants; i++ {
		if err := submit(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}

	stop := make(chan struct{})
	var bg, fg sync.WaitGroup
	background := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				f()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	background(func() { s.ScanOnce(clk.Now().Add(2 * time.Minute)) })
	background(func() { s.ForceExpire(); runtime.Gosched() })
	deadSeen := map[string]int{}
	background(func() {
		for _, ts := range s.Stats().Tenants {
			if ts.Dead < deadSeen[ts.Tenant] {
				t.Errorf("tenant %s: dead count fell from %d to %d", ts.Tenant, deadSeen[ts.Tenant], ts.Dead)
			}
			deadSeen[ts.Tenant] = ts.Dead
		}
	})
	background(func() {
		rr := httptest.NewRecorder()
		s.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if _, err := export.Parse(rr.Body); err != nil {
			t.Errorf("metrics scrape: %v", err)
		}
	})
	entries := []string{"Sharded-SBQ", "Sharded-FAA"}
	swaps := 0
	background(func() {
		if err := s.SwapBackend("t0", entries[swaps%len(entries)]); err != nil {
			t.Errorf("SwapBackend: %v", err)
		}
		swaps++
	})

	for c := 0; c < claimers; c++ {
		fg.Add(1)
		go func(c int) {
			defer fg.Done()
			for k := 0; k < maxTenants; k++ {
				// Claimers race on the same names, so a name may be
				// created by one and joined by the others.
				name := fmt.Sprintf("new%d", (c+k)%maxTenants)
				switch err := submit(name); {
				case err == nil:
				case errors.Is(err, service.ErrTenantLimit):
				default:
					t.Errorf("Submit(%s): %v", name, err)
				}
			}
		}(c)
	}
	for w := 0; w < workers; w++ {
		fg.Add(1)
		go func(w int) {
			defer fg.Done()
			tenant := fmt.Sprintf("t%d", w%tenants)
			for i := 0; i < cycles; i++ {
				if err := submit(tenant); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				l, ok, err := s.Lease(tenant)
				if err != nil {
					t.Errorf("Lease: %v", err)
					return
				}
				switch {
				case !ok:
				case poison(l):
					settle(l, true)
				case (w+i)%7 == 0: // the worker crashed: the lease expires
				default:
					settle(l, (w+i)%5 == 0 && l.Attempts == 1)
				}
			}
		}(w)
	}
	fg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}

	// Drain: expire every lease and release every delayed job, then lease
	// and settle every tenant empty, until the service holds nothing
	// unsettled. The clock advances each round, so jobs the previous round
	// delayed are due in this one.
	for round := 0; ; round++ {
		if round > 100 {
			t.Fatalf("service still holds unsettled jobs after %d drain rounds: %+v", round, s.Stats().Tenants)
		}
		clk.Advance(time.Hour)
		s.ScanOnce(clk.Now())
		held := 0
		for _, ts := range s.Stats().Tenants {
			held += ts.Queued + ts.Leased + ts.Delayed
			for {
				l, ok, err := s.Lease(ts.Tenant)
				if err != nil {
					t.Fatalf("drain Lease: %v", err)
				}
				if !ok {
					break
				}
				settle(l, poison(l))
			}
		}
		if held == 0 {
			break
		}
	}

	st := s.Stats()
	if len(st.Tenants) != maxTenants {
		t.Fatalf("%d tenants, want exactly MaxTenants = %d", len(st.Tenants), maxTenants)
	}
	dead := map[uint64]bool{}
	for _, ts := range st.Tenants {
		if ts.Depth != 0 {
			t.Errorf("tenant %s: depth %d after the drain", ts.Tenant, ts.Depth)
		}
		for _, j := range s.DeadLetters(ts.Tenant) {
			if dead[j.ID] {
				t.Errorf("job %d dead-lettered twice", j.ID)
			}
			dead[j.ID] = true
		}
	}
	var acked uint64
	for id, tenant := range submitted {
		n := acks[id]
		acked += uint64(n)
		switch {
		case n > 1:
			t.Errorf("job %d (%s) acked %d times", id, tenant, n)
		case n == 1 && dead[id]:
			t.Errorf("job %d (%s) both acked and dead-lettered", id, tenant)
		case n == 0 && !dead[id]:
			t.Errorf("job %d (%s) neither acked nor dead-lettered", id, tenant)
		}
	}
	if len(acks) > len(submitted) || len(dead) > len(submitted) {
		t.Errorf("ledger holds %d acked and %d dead jobs for %d submitted", len(acks), len(dead), len(submitted))
	}
	if st.Acks != acked || st.DLQ != uint64(len(dead)) || st.InFlight != 0 {
		t.Errorf("stats acks=%d dlq=%d in_flight=%d, ledger acked %d, dead %d",
			st.Acks, st.DLQ, st.InFlight, acked, len(dead))
	}
	if st.Expired == 0 || st.DLQ == 0 || swaps == 0 {
		t.Errorf("stress did not reach every path: expired=%d dlq=%d swaps=%d", st.Expired, st.DLQ, swaps)
	}
}

// TestShutdownFenceRacesCalls races Shutdown against Submit, Lease and Ack
// loops: every Submit either fails with ErrDraining/ErrStopped or its job
// is acked or in the checkpoint, so the fence lets no call slip past the
// drain.
func TestShutdownFenceRacesCalls(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s := mustService(t, service.Config{SnapshotPath: path})
	fenced := func(err error) bool {
		return errors.Is(err, service.ErrDraining) || errors.Is(err, service.ErrStopped)
	}
	var accepted, acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := s.Submit("acme", nil); err != nil {
					if !fenced(err) {
						t.Errorf("Submit: %v", err)
					}
					return
				}
				accepted.Add(1)
				l, ok, err := s.Lease("acme")
				if err != nil {
					if !fenced(err) {
						t.Errorf("Lease: %v", err)
					}
					return
				}
				if !ok {
					continue
				}
				switch err := s.Ack(l.Token); {
				case err == nil:
					acked.Add(1)
				case !fenced(err) && !errors.Is(err, service.ErrNoSuchLease):
					t.Errorf("Ack: %v", err)
				}
			}
		}()
	}
	for accepted.Load() < 200 {
		runtime.Gosched()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	s2 := mustService(t, service.Config{SnapshotPath: path})
	defer s2.Shutdown(context.Background())
	restored := int64(0)
	for {
		l, ok, err := s2.Lease("acme")
		if err != nil {
			t.Fatalf("Lease after restore: %v", err)
		}
		if !ok {
			break
		}
		if err := s2.Ack(l.Token); err != nil {
			t.Fatalf("Ack after restore: %v", err)
		}
		restored++
	}
	if got := acked.Load() + restored; got != accepted.Load() {
		t.Fatalf("%d jobs accepted, but %d acked + %d checkpointed = %d", accepted.Load(), acked.Load(), restored, got)
	}
}

// BenchmarkScanOnce measures one scanner pass over 65,536 outstanding,
// unexpired leases: a pass walks every outstanding lease, so this is the
// cost Config.ScanInterval documents. ns/lease is the pass cost divided by
// the leases walked.
func BenchmarkScanOnce(b *testing.B) {
	const outstanding = 1 << 16
	clk := newFakeClock()
	s, err := service.New(service.Config{LeaseTTL: time.Hour, MaxInFlight: -1, Now: clk.Now})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		b.StopTimer() // ns/op is the cost of one pass
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-expire the outstanding leases instead of waiting an hour
		_ = s.Shutdown(ctx)
	}()
	for i := 0; i < outstanding; i++ {
		if _, err := s.Submit("acme", nil); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := s.Lease("acme"); err != nil || !ok {
			b.Fatalf("Lease: ok=%v err=%v", ok, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.ScanOnce(clk.Now()); n != 0 {
			b.Fatalf("ScanOnce reclaimed %d unexpired leases", n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/outstanding, "ns/lease")
}

// BenchmarkCycle runs the cycle of the benchmark's jobs-inproc workload:
// two goroutines loop Submit → Lease → Ack on one tenant over a standing
// backlog, with an obs.Stats recorder. One op is one cycle. Profile the
// service's hot path with
//
//	go test -run '^$' -bench '^BenchmarkCycle$' -cpuprofile cpu.out ./service
func BenchmarkCycle(b *testing.B) { benchCycle(b, 0) }

// BenchmarkCycleHeld runs BenchmarkCycle's loop with every client holding
// its last 256 leases, as workers that process several leases at once do:
// each Lease acks the client's oldest held lease instead of its own, so at
// GOMAXPROCS 2 a slot keeps about 256 leases outstanding.
func BenchmarkCycleHeld(b *testing.B) { benchCycle(b, 256) }

// benchCycle runs BenchmarkCycle's clients, each acking the lease it took
// held leases before, or at once when held is 0.
func benchCycle(b *testing.B, held int) {
	const backlog, clients = 4096, 2
	s, err := service.New(service.Config{Recorder: obs.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	payload := json.RawMessage(`{"n":1}`)
	for i := 0; i < backlog; i++ {
		if _, err := s.Submit("acme", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c == 0 {
			n += b.N % clients
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			window := make([]uint64, held) // held tokens, 0 for none
			ack := func(token uint64) bool {
				if token == 0 {
					return true
				}
				if err := s.Ack(token); err != nil {
					b.Error(err)
					return false
				}
				return true
			}
			for i := 0; i < n; i++ {
				if _, err := s.Submit("acme", payload); err != nil {
					b.Error(err)
					return
				}
				l, ok, err := s.Lease("acme")
				if err != nil || !ok {
					b.Errorf("Lease: ok=%v err=%v", ok, err)
					return
				}
				token := l.Token
				if held > 0 {
					token, window[i%held] = window[i%held], token
				}
				if !ack(token) {
					return
				}
			}
			for _, token := range window {
				if !ack(token) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSplitRoles runs the job cycle with the roles split, as a job
// queue is usually driven: one goroutine only submits and another only
// leases and acks, over a standing backlog, with an obs.Stats recorder.
// Unlike BenchmarkCycle, no caller leases on the P it submitted on, so
// no Lease finds its own submits on its home shard. One op is one job
// submitted and one acked; the producer waits while it is more than two
// backlogs ahead of the worker. It reports the queue's steals and empty
// dequeues per dequeue attempt.
func BenchmarkSplitRoles(b *testing.B) {
	const backlog = 4096
	rec := obs.New()
	s, err := service.New(service.Config{Recorder: rec, MaxInFlight: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	payload := json.RawMessage(`{"n":1}`)
	for i := 0; i < backlog; i++ {
		if _, err := s.Submit("acme", payload); err != nil {
			b.Fatal(err)
		}
	}
	before := rec.Snapshot().Counters
	b.ResetTimer()
	var acked atomic.Int64
	var failed atomic.Bool // set by a role that stops early, so the other does not wait for it
	fail := func(err error) {
		failed.Store(true)
		b.Error(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			for int64(i)-acked.Load() > 2*backlog && !failed.Load() {
				runtime.Gosched()
			}
			if _, err := s.Submit("acme", payload); err != nil {
				fail(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; {
			l, ok, err := s.Lease("acme")
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				if failed.Load() {
					return
				}
				runtime.Gosched()
				continue
			}
			if err := s.Ack(l.Token); err != nil {
				fail(err)
				return
			}
			if i++; i%64 == 0 {
				acked.Store(int64(i))
			}
		}
	}()
	wg.Wait()
	b.StopTimer()
	c := rec.Snapshot().Counters
	deq := float64(c[obs.DeqOps] - before[obs.DeqOps])
	empty := float64(c[obs.DeqEmpty] - before[obs.DeqEmpty])
	b.ReportMetric(float64(c[obs.DeqSteals]-before[obs.DeqSteals])/deq, "steals/deq")
	b.ReportMetric(empty/(deq+empty), "empty/deq")
}
