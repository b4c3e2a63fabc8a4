package reclaim

import "testing"

type item struct {
	stamp uint64
	v     int
}

// raceRounds bounds the retries of the tests below that expect a recycled
// item back from a sync.Pool. Under the race detector sync.Pool.Put drops
// a random quarter of its items, so one round misses with odds 1/4 and
// all raceRounds miss with odds 4^-32; without -race the first round hits.
const raceRounds = 32

func TestPoolRecyclesWhenUnprotected(t *testing.T) {
	e := NewEpoch()
	p := NewPool(e, func() *item { return &item{} }, func(it *item) { it.v = -1 })

	for round := uint64(1); round <= raceRounds; round++ {
		a := p.Get()
		a.stamp, a.v = round, 1
		p.Retire(a.stamp, a)
		if freed := p.Collect(); freed != 1 {
			t.Fatalf("round %d: Collect freed %d, want 1 (nothing protected)", round, freed)
		}
		if a.v != -1 {
			t.Fatalf("round %d: recycled item not reset: v=%d, want -1", round, a.v)
		}
		if got := p.Freed.Load(); got != round {
			t.Fatalf("round %d: Freed=%d, want %d", round, got, round)
		}
		if p.Get() == a {
			return
		}
	}
	t.Fatalf("Get returned a fresh item in all %d rounds, want the recycled one", raceRounds)
}

func TestPoolDefersWhileProtected(t *testing.T) {
	e := NewEpoch()
	p := NewPool(e, func() *item { return &item{} }, nil)

	it := p.Get()
	it.stamp = 1
	g := e.Acquire()
	g.Protect(it.stamp) // an in-flight reader announced this stamp
	p.Retire(it.stamp, it)
	if freed := p.Collect(); freed != 0 {
		t.Fatalf("Collect freed %d under an active announcement, want 0", freed)
	}
	// A later announcement does not resurrect protection for older stamps.
	e.Release(g)
	g2 := e.Acquire()
	g2.Protect(2)
	if freed := p.Collect(); freed != 1 {
		t.Fatalf("Collect freed %d after release, want 1", freed)
	}
	e.Release(g2)
}

func TestEpochGuardReuseAndMinStamp(t *testing.T) {
	e := NewEpoch()
	if min := e.MinStamp(); min != NoStamp {
		t.Fatalf("MinStamp with no guards = %d, want NoStamp", min)
	}
	g := e.Acquire()
	g.Protect(7)
	h := e.Acquire()
	h.Protect(3)
	if min := e.MinStamp(); min != 3 {
		t.Fatalf("MinStamp = %d, want 3", min)
	}
	e.Release(h)
	if min := e.MinStamp(); min != 7 {
		t.Fatalf("MinStamp after release = %d, want 7", min)
	}
	e.Release(g)
	// Released guards recycle through the freelist. A fresh guard means
	// the pool dropped the Puts (see raceRounds): release it too and retry.
	released := map[*Guard]bool{g: true, h: true}
	for round := 0; round < raceRounds; round++ {
		again := e.Acquire()
		if released[again] {
			return
		}
		released[again] = true
		e.Release(again)
	}
	t.Fatalf("Acquire after release returned a fresh guard in all %d rounds, want a recycled one", raceRounds)
}

func TestPoolAmortizedCollect(t *testing.T) {
	e := NewEpoch()
	p := NewPool(e, func() *item { return &item{} }, nil)
	// collectEvery retires trigger a collection without an explicit call.
	for i := 0; i < collectEvery; i++ {
		it := p.Get()
		it.stamp = uint64(i + 1)
		p.Retire(it.stamp, it)
	}
	if p.Freed.Load() == 0 {
		t.Fatalf("no automatic collection after %d retires", collectEvery)
	}
}
