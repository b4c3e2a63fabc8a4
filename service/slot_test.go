package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine/policy"
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

// TestShutdownWaitsForEverySlot enters one slot, as a call that borrowed
// that slot does, and starts Shutdown. Shutdown must flip the state and
// then wait for the slots' in-flight counts to sum to zero: it may not
// return while the call runs, whichever slot the call holds, and a call
// that enters on another slot meanwhile must see ErrDraining. Once the
// scanner has stopped, only the drain reads the injected clock, once per
// poll, and it polls only after its sum read above zero; so the test waits
// for two polls instead of sleeping, and a Shutdown whose sum skips the
// slot returns before its first poll and fails the test.
func TestShutdownWaitsForEverySlot(t *testing.T) {
	for _, k := range []int{0, 37, numSlots - 1} {
		var reads atomic.Int64
		s := mustNew(t, Config{ScanInterval: time.Millisecond, Now: func() time.Time {
			reads.Add(1)
			return time.Now()
		}})
		held := &s.slots[k]
		if err := s.enter(held); err != nil {
			t.Fatalf("slot %d: enter: %v", k, err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(context.Background()) }()
		<-s.scanDone // Shutdown has flipped the state and stopped the scanner
		for polls := reads.Load() + 2; reads.Load() < polls; runtime.Gosched() {
			select {
			case err := <-done:
				t.Fatalf("slot %d: Shutdown returned (%v) while a call held the slot", k, err)
			default:
			}
		}
		if st := s.state.Load(); st != srvDraining {
			t.Fatalf("slot %d: state %d while Shutdown drains, want draining", k, st)
		}
		if err := s.enter(&s.slots[(k+1)%numSlots]); !errors.Is(err, ErrDraining) {
			t.Fatalf("slot %d: a call entering on slot %d got %v, want ErrDraining", k, (k+1)%numSlots, err)
		}
		select {
		case err := <-done:
			t.Fatalf("slot %d: Shutdown returned (%v) while a call held the slot", k, err)
		default:
		}
		s.end(held) // the call ends
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

// TestRingOverflowLeases holds one lease on a slot across more than
// ringSize mints, so the lease minted ringSize after it finds its home
// cell held and goes to the slot's overflow map, while the next one takes
// a ring cell. Stats, settlement from other goroutines, the scanner and a
// forced shutdown's checkpoint must each see both kinds of lease, and a
// second settlement of any of them gets ErrNoSuchLease.
func TestRingOverflowLeases(t *testing.T) {
	const k = 37
	path := filepath.Join(t.TempDir(), "snap.json")
	s := mustNew(t, Config{SnapshotPath: path, Backoff: policy.AbortBudget{Budget: 100, Inner: policy.ExponentialBackoff{}}})
	sl := &s.slots[k]
	leaseOn := func() Lease {
		t.Helper()
		if _, err := s.Submit("acme", nil); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		tn, _ := s.tenantFor("acme", false)
		if err := s.enter(sl); err != nil {
			t.Fatalf("enter: %v", err)
		}
		j, ok := tn.dequeue(sl.lane)
		if !ok {
			t.Fatal("dequeue came back empty")
		}
		return s.lease(sl, j)
	}
	// build leaves three leases of slot k outstanding: held and ring in
	// ring cells, over in the overflow map.
	build := func() (held, ring, over Lease) {
		t.Helper()
		held = leaseOn()
		for range ringSize - 1 {
			if err := s.Ack(leaseOn().Token); err != nil {
				t.Fatalf("Ack: %v", err)
			}
		}
		over, ring = leaseOn(), leaseOn()
		sl.mu.Lock()
		_, inMap := sl.leases[over.Token]
		cell := sl.cell(ring.Token).token
		sl.mu.Unlock()
		if !inMap || len(sl.leases) != 1 || cell != ring.Token {
			t.Fatalf("tokens %d, %d, %d: want the second in the overflow map (%v, %d entries), the third in its cell (holds %d)",
				held.Token, over.Token, ring.Token, inMap, len(sl.leases), cell)
		}
		st := s.Stats()
		if st.InFlight != 3 || len(st.Tenants) != 1 || st.Tenants[0].Leased != 3 {
			t.Fatalf("Stats: %d in flight, tenants %+v; want 3 leased", st.InFlight, st.Tenants)
		}
		return held, ring, over
	}
	settle := func(l Lease, nack bool) error {
		done := make(chan error)
		go func() {
			if nack {
				done <- s.Nack(l.Token)
			} else {
				done <- s.Ack(l.Token)
			}
		}()
		return <-done
	}
	settleAll := func(want error, ls ...Lease) {
		t.Helper()
		for i, l := range ls {
			if err := settle(l, i == 1); !errors.Is(err, want) {
				t.Fatalf("settling token %d: %v, want %v", l.Token, err, want)
			}
		}
	}

	held, ring, over := build()
	settleAll(nil, held, ring, over)
	settleAll(ErrNoSuchLease, held, ring, over)
	if n, st := s.inFlight(), s.Stats(); n != 0 || st.InFlight != 0 {
		t.Fatalf("after settling: in-flight sum %d, Stats().InFlight %d", n, st.InFlight)
	}

	held, ring, over = build()
	if n := s.ScanOnce(time.Now()); n != 0 {
		t.Fatalf("scanner reclaimed %d unexpired leases", n)
	}
	if n := s.ScanOnce(time.Now().Add(time.Hour)); n != 3 {
		t.Fatalf("scanner reclaimed %d expired leases, want 3", n)
	}
	settleAll(ErrNoSuchLease, held, ring, over)

	held, ring, over = build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced Shutdown: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	saved := map[uint64]bool{}
	for _, st := range snap.Tenants {
		for _, sj := range st.Jobs {
			saved[sj.ID] = true
		}
	}
	for _, l := range []Lease{held, ring, over} {
		if !saved[l.ID] {
			t.Fatalf("job %d, leased under token %d, missing from the checkpoint", l.ID, l.Token)
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
// token, so no slot's count goes negative, and the in-flight sum,
// Stats().InFlight and sbq_inflight_leases read 0 once everything is
// settled.
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
		if got := s.inFlight(); got != want {
			t.Fatalf("in-flight sum = %d, want %d", got, want)
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
			if err := s.enter(sl); err != nil {
				t.Fatalf("enter: %v", err)
			}
			j, ok := tn.dequeue(sl.lane)
			if !ok {
				t.Fatal("dequeue came back empty")
			}
			l := s.lease(sl, j) // the call's count passes to the token
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

// TestSlotsMintAboveBase: after startSlots, as restore calls it with the
// checkpoint's next_token and next_id, every slot's next token and next
// job id exceed their bases and name the slot.
func TestSlotsMintAboveBase(t *testing.T) {
	for _, base := range []uint64{0, 1, 63, 64, 200, 1<<40 + 63} {
		sl := new([numSlots]slot)
		startSlots(sl, base, base+7)
		for i := range sl {
			if tok := sl[i].mint(); tok <= base || tok&slotMask != uint64(i) {
				t.Fatalf("base %d: slot %d minted token %d", base, i, tok)
			}
			if id := sl[i].newID(); id <= base+7 || id&slotMask != uint64(i) {
				t.Fatalf("base %d: slot %d minted job id %d", base+7, i, id)
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
		sl.walk(func(tok uint64, _ leaseEntry) bool {
			if _, ok := stable[tok]; ok {
				stable[tok]++
			}
			return false
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
