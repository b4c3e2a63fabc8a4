package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestShutdownWaitsForEverySlot holds one slot's fence read lock, as a
// call that borrowed that slot does, and starts Shutdown. Shutdown must
// flip the state and then wait on that slot's write lock: it may not
// return while the call runs, whichever slot the call holds, and a call
// that enters on another slot meanwhile must see ErrDraining. The test
// waits for Shutdown's pending write lock (TryRLock fails once a writer
// waits), so it needs no sleep; a Shutdown that skips the slot returns
// instead and fails the test.
func TestShutdownWaitsForEverySlot(t *testing.T) {
	for _, k := range []int{0, 37, numSlots - 1} {
		s := mustNew(t, Config{})
		held := &s.slots[k]
		if err := s.enter(held); err != nil {
			t.Fatalf("slot %d: enter: %v", k, err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(context.Background()) }()
	wait:
		for {
			select {
			case err := <-done:
				t.Fatalf("slot %d: Shutdown returned (%v) while a call held the slot's fence", k, err)
			default:
			}
			if !held.fence.TryRLock() {
				break wait // Shutdown waits for the slot's write lock
			}
			held.fence.RUnlock()
			runtime.Gosched()
		}
		if st := s.state.Load(); st != srvDraining {
			t.Fatalf("slot %d: state %d while Shutdown waits at the fence, want draining", k, st)
		}
		if err := s.enter(&s.slots[(k+1)%numSlots]); !errors.Is(err, ErrDraining) {
			t.Fatalf("slot %d: a call entering on slot %d got %v, want ErrDraining", k, (k+1)%numSlots, err)
		}
		select {
		case err := <-done:
			t.Fatalf("slot %d: Shutdown returned (%v) while a call held the slot's fence", k, err)
		default:
		}
		held.fence.RUnlock() // the call ends
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("slot %d: Shutdown: %v", k, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("slot %d: Shutdown did not return after the call ended", k)
		}
	}
}

// TestLeaseTakesFromItsLanesHomeShard: on a sharded entry, lane k's
// producer and consumer views share home shard k mod Shards, and slot i
// uses lane i mod Lanes. A Lease through a lane takes the job its own
// lane's Submit enqueued, though another shard holds an older one, and
// steals only once its home shard is dry.
func TestLeaseTakesFromItsLanesHomeShard(t *testing.T) {
	s := mustNew(t, Config{Queue: "Sharded-FAA", Shards: 2, Lanes: 2, Recorder: obs.New()})
	defer s.Shutdown(context.Background())
	for i := range s.slots {
		if got := s.slots[i].lane; got != i%2 {
			t.Fatalf("slot %d uses lane %d, want %d", i, got, i%2)
		}
	}
	tn, err := s.tenantFor("acme", true)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job, 3)
	for i := range jobs {
		jobs[i] = &job{id: uint64(i + 1), tenant: tn}
	}
	steals := func() uint64 { return tn.stats.Snapshot().Counter(obs.DeqSteals) }
	take := func(ln int, want *job, wantSteals uint64) {
		t.Helper()
		got, ok := tn.dequeue(ln)
		if !ok || got != want {
			t.Fatalf("lane %d dequeued %v (ok=%v), want job %d", ln, got, ok, want.id)
		}
		if n := steals(); n != wantSteals {
			t.Fatalf("after lane %d dequeued job %d: %d steals, want %d", ln, want.id, n, wantSteals)
		}
	}
	tn.enqueue(jobs[0], 0)
	tn.enqueue(jobs[1], 1)
	take(1, jobs[1], 0) // job 1 is older, but on the other shard
	take(0, jobs[0], 0)
	tn.enqueue(jobs[2], 0)
	take(1, jobs[2], 1) // lane 1's shard is dry: steal
}

// TestCrossSlotSettleLeavesNoInFlight mints leases on one slot and settles
// them from other goroutines, which run on whatever slot their P holds:
// the settlement must decrement the count of the slot that minted the
// token, so no slot's count goes negative and Stats().InFlight and
// sbq_inflight_leases read 0 once everything is settled.
func TestCrossSlotSettleLeavesNoInFlight(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Shutdown(context.Background())
	inflightGauge := func() float64 {
		t.Helper()
		rr := httptest.NewRecorder()
		s.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		sc, err := export.Parse(rr.Body)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		v, ok := sc.Value(MetricInFlight, nil)
		if !ok {
			t.Fatalf("metrics: %s missing", MetricInFlight)
		}
		return v
	}
	check := func(want int64) {
		t.Helper()
		for i := range s.slots {
			if n := s.slots[i].inFlight.Load(); n < 0 {
				t.Fatalf("slot %d in-flight count %d", i, n)
			}
		}
		if got := s.Stats().InFlight; got != want {
			t.Fatalf("Stats().InFlight = %d, want %d", got, want)
		}
		if got := inflightGauge(); got != float64(want) {
			t.Fatalf("%s = %g, want %d", MetricInFlight, got, want)
		}
	}
	for _, k := range []int{5, 37} {
		for _, settle := range []func(uint64) error{s.Ack, s.Nack} {
			if _, err := s.Submit("acme", nil); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			tn, _ := s.tenantFor("acme", false)
			sl := &s.slots[k]
			j, ok := tn.dequeue(sl.lane)
			if !ok {
				t.Fatal("dequeue came back empty")
			}
			l := s.lease(sl, j)
			if int(l.Token&slotMask) != k {
				t.Fatalf("token %d minted on slot %d names slot %d", l.Token, k, l.Token&slotMask)
			}
			check(1)
			done := make(chan error)
			go func() { done <- settle(l.Token) }()
			if err := <-done; err != nil {
				t.Fatalf("settle on another goroutine: %v", err)
			}
			check(0)
			// A nacked job is queued or delayed again: drain it.
			s.ForceExpire()
			for {
				l, ok, err := s.Lease("acme")
				if err != nil {
					t.Fatalf("Lease: %v", err)
				}
				if !ok {
					break
				}
				if err := s.Ack(l.Token); err != nil {
					t.Fatalf("Ack: %v", err)
				}
			}
			check(0)
		}
	}
}

// TestSlotsMintAboveBase: after startSlots(base), as restore calls it with
// the checkpoint's next_token, every slot's next token exceeds base and
// names its slot.
func TestSlotsMintAboveBase(t *testing.T) {
	for _, base := range []uint64{0, 1, 63, 64, 200, 1<<40 + 63} {
		sl := new([numSlots]slot)
		startSlots(sl, base)
		for i := range sl {
			if tok := sl[i].mint(); tok <= base || tok&slotMask != uint64(i) {
				t.Fatalf("base %d: slot %d minted token %d", base, i, tok)
			}
		}
	}
}

// TestWalkVisitsStableLeasesOnce walks a slot holding several chunks of
// leases while another goroutine keeps putting and taking other tokens on
// it, so the walk's lock releases let the map change, and grow, in the
// middle of its iteration. Every lease that stays put is visited exactly
// once.
func TestWalkVisitsStableLeasesOnce(t *testing.T) {
	sl := &newSlots(1)[0]
	stable := map[uint64]int{}
	for range 4 * walkChunk {
		tok := sl.mint()
		sl.put(tok, leaseEntry{})
		stable[tok] = 0
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tok := sl.mint()
			sl.put(tok, leaseEntry{})
			if i%2 == 0 {
				sl.take(tok)
			}
		}
	}()
	for round := 0; round < 3; round++ {
		for tok := range stable {
			stable[tok] = 0
		}
		sl.walk(func(tok uint64, _ leaseEntry) {
			if _, ok := stable[tok]; ok {
				stable[tok]++
			}
		})
		for tok, n := range stable {
			if n != 1 {
				close(stop)
				<-done
				t.Fatalf("round %d: stable lease %d visited %d times", round, tok, n)
			}
		}
	}
	close(stop)
	<-done
}

// TestShutDownServiceIsCollected: a Service that was used and shut down
// becomes garbage, with the jobs it still holds, at the first collection
// after its last reference goes. The runtime keeps every sync.Pool used
// since the last collection reachable until the one after, so a slot pool
// embedded in the Service would keep it alive a collection longer. The
// finalizer sits on a queued job's payload, which is in no reference cycle.
func TestShutDownServiceIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		s := mustNew(t, Config{})
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { close(collected) })
		for i := range 100 {
			p := []byte("1")
			if i == 0 {
				p = payload[:]
			}
			if _, err := s.Submit("acme", p); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a job queued in a shut-down, unreferenced Service survived a collection")
	}
}
