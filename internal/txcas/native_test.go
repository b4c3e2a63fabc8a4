package txcas_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/queue/queuetest"
)

// tnode is a minimal linkable node: a one-shot next link plus the id of
// the thread that linked it, written while the node is private.
type tnode struct {
	next   atomic.Pointer[tnode]
	linker int
}

func (n *tnode) Linker() int { return n.linker }

// flight is a minimal flight recorder: timeline events in a slice, so
// tests can read the winner an EvTxAbort names. Engines record into its
// stats, which counts and hands the events to the flight.
type flight struct {
	stats *obs.Stats
	mu    sync.Mutex
	log   []event
}

type event struct {
	kind obs.EventKind
	lane int32
	arg  uint64
}

func newFlight() *flight {
	f := &flight{}
	f.stats = obs.NewWithEvents(f)
	return f
}

func (f *flight) Event(k obs.EventKind, lane int32, arg uint64) {
	f.mu.Lock()
	f.log = append(f.log, event{k, lane, arg})
	f.mu.Unlock()
}

// aborts returns the EvTxAbort events recorded so far.
func (f *flight) aborts() []event {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []event
	for _, ev := range f.log {
		if ev.kind == obs.EvTxAbort {
			out = append(out, ev)
		}
	}
	return out
}

func (f *flight) count(c obs.Counter) uint64 { return f.stats.Snapshot().Counter(c) }

// entering is a RetryPolicy that sets a speculation window of cycles and
// closes entered when the engine consults it, right before the watch.
type entering struct {
	entered chan struct{}
	cycles  uint64
}

func (p entering) Decide(policy.Abort, func(uint64) uint64) policy.Decision {
	close(p.entered)
	return policy.Decision{Delay: p.cycles}
}

// speculate starts one GuardedCAS of n on link with a 200ms window,
// recorded in rec, and returns its result channel once the contender is
// entering the window.
func speculate(rec *obs.Stats, thread int, link *atomic.Pointer[tnode], n *tnode) <-chan bool {
	p := entering{entered: make(chan struct{}), cycles: 500_000_000} // 200ms at 2.5 cycles/ns
	e := txcas.NewEngine(txcas.WithPolicy(p), txcas.WithRecorder(rec))
	res := make(chan bool, 1)
	go func() { res <- txcas.GuardedCAS(e, thread, link, n) }()
	<-p.entered
	return res
}

// TestGuardedCASOneShot links a node, then checks that a stale contender
// with no window issues its CAS, loses, and is counted as a failure.
func TestGuardedCASOneShot(t *testing.T) {
	rec := newFlight()
	e := txcas.NewEngine(txcas.WithWindow(0), txcas.WithRecorder(rec.stats))
	var link atomic.Pointer[tnode]
	a, b := &tnode{linker: 3}, &tnode{linker: 5}

	if !txcas.GuardedCAS(e, 3, &link, a) {
		t.Fatal("uncontended guarded CAS failed")
	}
	if txcas.GuardedCAS(e, 5, &link, b) {
		t.Fatal("guarded CAS on a taken one-shot link succeeded")
	}
	if link.Load() != a {
		t.Error("link no longer points at the winner's node")
	}
	for c, want := range map[obs.Counter]uint64{
		obs.CASAttempts: 2, obs.CASFailures: 1, obs.TxSharerHints: 1, obs.TxSoftAborts: 0,
	} {
		if got := rec.count(c); got != want {
			t.Errorf("%v=%d, want %d", c, got, want)
		}
	}
}

// TestGuardedCASSoftAbort holds a contender inside a long window on link
// B while another thread links B, and checks the contender abandons its
// CAS (soft abort) instead of issuing it, naming the winner.
func TestGuardedCASSoftAbort(t *testing.T) {
	rec := newFlight()
	// The winner and contender drive the same link through different
	// engines so only the contender speculates.
	fast := txcas.NewEngine(txcas.WithWindow(0))
	var linkB atomic.Pointer[tnode]

	res := speculate(rec.stats, 7, &linkB, &tnode{linker: 7})
	if !txcas.GuardedCAS(fast, 2, &linkB, &tnode{linker: 2}) {
		t.Fatal("winner's guarded CAS failed")
	}
	if <-res {
		t.Fatal("contender won a link that was already taken")
	}
	if got := rec.count(obs.CASAttempts); got != 0 {
		t.Errorf("CASAttempts=%d, want 0: the doomed CAS must never be issued", got)
	}
	if got := rec.count(obs.TxSoftAborts); got != 1 {
		t.Errorf("TxSoftAborts=%d, want 1", got)
	}
	if got := rec.count(obs.TxSharerHints); got != 1 {
		t.Errorf("TxSharerHints=%d, want 1", got)
	}
	ab := rec.aborts()
	if len(ab) != 1 || ab[0].lane != 7 || obs.AbortRequester(ab[0].arg) != 2 {
		t.Fatalf("EvTxAbort events %+v, want one on lane 7 naming winner 2", ab)
	}
}

// TestGuardedCASIgnoresOtherLinks is the regression test for a soft abort
// on a link that is still nil. A contender speculates on link B while
// another thread links A. The contender watches only B, so it must still
// issue its CAS and win. A queue-wide publication channel shared by A and
// B would soft-abort it here, and a queue would then follow B's nil link.
func TestGuardedCASIgnoresOtherLinks(t *testing.T) {
	rec := newFlight()
	fast := txcas.NewEngine(txcas.WithWindow(0))
	var linkA, linkB atomic.Pointer[tnode]
	mine := &tnode{linker: 7}

	res := speculate(rec.stats, 7, &linkB, mine)
	if !txcas.GuardedCAS(fast, 2, &linkA, &tnode{linker: 2}) {
		t.Fatal("linking A failed")
	}
	if !<-res {
		t.Fatal("contender on B failed although B was never linked by anyone else")
	}
	if linkB.Load() != mine {
		t.Error("B does not hold the contender's node")
	}
	if got := rec.count(obs.CASAttempts); got != 1 {
		t.Errorf("CASAttempts=%d, want 1", got)
	}
	if got := rec.count(obs.TxSoftAborts); got != 0 {
		t.Errorf("TxSoftAborts=%d, want 0", got)
	}
}

// TestSequentialChurnHarvest links a chain of nodes one after another,
// then sends a stale contender at every link and checks each failure is
// a soft abort naming exactly that link's winner.
func TestSequentialChurnHarvest(t *testing.T) {
	for _, churn := range []int{1, 3, 8} {
		rec := newFlight()
		e := txcas.NewEngine(txcas.WithWindow(time.Microsecond), txcas.WithRecorder(rec.stats))
		chain := make([]*tnode, churn+1)
		chain[0] = &tnode{}
		for i := 1; i <= churn; i++ {
			chain[i] = &tnode{linker: i}
			if !txcas.GuardedCAS(e, i, &chain[i-1].next, chain[i]) {
				t.Fatalf("churn=%d: uncontended link %d failed", churn, i)
			}
		}
		for i := 1; i <= churn; i++ {
			if txcas.GuardedCAS(e, 99, &chain[i-1].next, &tnode{linker: 99}) {
				t.Fatalf("churn=%d: stale contender won link %d", churn, i)
			}
		}
		if got := rec.count(obs.CASAttempts); got != uint64(churn) {
			t.Errorf("churn=%d: CASAttempts=%d, want %d (winners only)", churn, got, churn)
		}
		if got := rec.count(obs.TxSoftAborts); got != uint64(churn) {
			t.Errorf("churn=%d: TxSoftAborts=%d, want %d", churn, got, churn)
		}
		ab := rec.aborts()
		if len(ab) != churn {
			t.Fatalf("churn=%d: %d EvTxAbort events, want %d", churn, len(ab), churn)
		}
		for i, ev := range ab {
			if w := obs.AbortRequester(ev.arg); w != i+1 {
				t.Errorf("churn=%d: abort on link %d names %d, want %d", churn, i+1, w, i+1)
			}
		}
	}
}

// TestSeededInterleavings drives seeded pseudo-random GuardedCAS schedules
// over several links, through engines in all three configurations, and
// checks them step for step against a one-shot link model: a CAS wins iff
// the link is still nil, and every soft abort names the link's winner.
func TestSeededInterleavings(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		rec := newFlight()
		engines := []*txcas.Engine{
			txcas.NewEngine(txcas.WithWindow(0), txcas.WithRecorder(rec.stats)),
			txcas.NewEngine(txcas.WithWindow(50*time.Nanosecond), txcas.WithRecorder(rec.stats)),
			txcas.NewEngine(txcas.WithPolicy(policy.DelayedCAS{Delay: 10}), txcas.WithRecorder(rec.stats)),
		}
		const links = 64
		var link [links]atomic.Pointer[tnode]
		winner := make([]int, links)
		for step := 0; step < 2000; step++ {
			l := rng.Intn(links)
			thread := rng.Intn(8)
			n := &tnode{linker: thread}
			before := len(rec.aborts())
			want := link[l].Load() == nil
			if got := txcas.GuardedCAS(engines[rng.Intn(len(engines))], thread, &link[l], n); got != want {
				t.Fatalf("seed=%d step=%d: GuardedCAS on link %d = %v, model wants %v", seed, step, l, got, want)
			}
			if want {
				winner[l] = thread
			}
			if ab := rec.aborts(); len(ab) > before {
				if w := obs.AbortRequester(ab[len(ab)-1].arg); w != winner[l] {
					t.Fatalf("seed=%d step=%d: soft abort names %d, link %d's winner is %d", seed, step, w, l, winner[l])
				}
			}
		}
		s := rec.stats.Snapshot()
		if s.Counter(obs.CASAttempts)+s.Counter(obs.TxSoftAborts) != 2000 {
			t.Errorf("seed=%d: attempts %d + soft aborts %d != 2000 operations", seed,
				s.Counter(obs.CASAttempts), s.Counter(obs.TxSoftAborts))
		}
	}
}

// TestConcurrentSingleWinner races N threads at one link and checks
// exactly one wins, the link holds the winner's node, and every loser is
// accounted for as a soft abort or a failed CAS, naming the winner.
func TestConcurrentSingleWinner(t *testing.T) {
	for round := 0; round < 50; round++ {
		rec := newFlight()
		e := txcas.NewEngine(txcas.WithRecorder(rec.stats))
		var link atomic.Pointer[tnode]
		const n = 8
		won := make([]bool, n)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func(id int) {
				defer done.Done()
				start.Wait()
				won[id] = txcas.GuardedCAS(e, id, &link, &tnode{linker: id})
			}(i)
		}
		start.Done()
		done.Wait()
		winner := -1
		for i, ok := range won {
			if ok {
				if winner != -1 {
					t.Fatalf("round %d: threads %d and %d both won", round, winner, i)
				}
				winner = i
			}
		}
		if winner == -1 {
			t.Fatalf("round %d: no thread won", round)
		}
		if got := link.Load().linker; got != winner {
			t.Fatalf("round %d: link holds %d's node, winner was %d", round, got, winner)
		}
		s := rec.stats.Snapshot()
		if lost := s.Counter(obs.TxSoftAborts) + s.Counter(obs.CASFailures); lost != n-1 {
			t.Errorf("round %d: soft aborts + failed CASes = %d, want %d losers", round, lost, n-1)
		}
		for _, ev := range rec.aborts() {
			if w := obs.AbortRequester(ev.arg); w != winner {
				t.Errorf("round %d: loser %d blames %d, winner was %d", round, ev.lane, w, winner)
			}
		}
	}
}

// TestPolicyFallback checks the policy plumbing: DelayedCAS (always
// Fallback) skips the watch and resolves on the plain path, and the
// engine counts every issued CAS as a fallback.
func TestPolicyFallback(t *testing.T) {
	rec := newFlight()
	e := txcas.NewEngine(txcas.WithPolicy(policy.DelayedCAS{Delay: 10}), txcas.WithRecorder(rec.stats))
	var link atomic.Pointer[tnode]
	if !txcas.GuardedCAS(e, 1, &link, &tnode{linker: 1}) {
		t.Fatal("policy-diverted guarded CAS failed on a nil link")
	}
	if txcas.GuardedCAS(e, 2, &link, &tnode{linker: 2}) {
		t.Fatal("policy-diverted guarded CAS won a taken link")
	}
	for c, want := range map[obs.Counter]uint64{
		obs.CASAttempts: 2, obs.CASFallbacks: 2, obs.CASFailures: 1, obs.TxSoftAborts: 0,
	} {
		if got := rec.count(c); got != want {
			t.Errorf("%v=%d, want %d", c, got, want)
		}
	}
}

// TestRecorderAccounting checks the counter discipline with a window: a
// contender that finds the link filled soft-aborts without issuing a CAS.
func TestRecorderAccounting(t *testing.T) {
	rec := newFlight()
	e := txcas.NewEngine(txcas.WithWindow(time.Microsecond), txcas.WithRecorder(rec.stats))
	var link atomic.Pointer[tnode]
	if !txcas.GuardedCAS(e, 1, &link, &tnode{linker: 1}) {
		t.Fatal("setup link failed")
	}
	if txcas.GuardedCAS(e, 2, &link, &tnode{linker: 2}) {
		t.Fatal("stale CAS won")
	}
	for c, want := range map[obs.Counter]uint64{
		obs.CASAttempts: 1, obs.CASFailures: 0, obs.TxSoftAborts: 1, obs.TxSharerHints: 1,
	} {
		if got := rec.count(c); got != want {
			t.Errorf("%v=%d, want %d", c, got, want)
		}
	}
}

// TestAllocFreeHotPaths gates GuardedCAS at zero heap allocations per
// operation in every configuration, success and failure alike.
func TestAllocFreeHotPaths(t *testing.T) {
	if queuetest.RaceEnabled {
		t.Skip("race-detector instrumentation distorts allocation accounting")
	}
	for name, opt := range map[string]txcas.Option{
		"plain":   txcas.WithWindow(0),
		"delayed": txcas.WithPolicy(policy.DelayedCAS{Delay: 10}),
		"txcas":   txcas.WithWindow(time.Microsecond),
	} {
		e := txcas.NewEngine(opt, txcas.WithRecorder(obs.New()))
		var link atomic.Pointer[tnode]
		n := &tnode{}
		if avg := testing.AllocsPerRun(200, func() {
			txcas.GuardedCAS(e, 1, &link, n) // wins once, then fails
		}); avg != 0 {
			t.Errorf("%s: GuardedCAS allocates %.2f objects/op, want 0", name, avg)
		}
	}
}
