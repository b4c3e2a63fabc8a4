package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// The service's write-hot state is split into numSlots slots. A lease
// token's low slotBits bits name the slot that minted it.
const (
	slotBits = 6
	numSlots = 1 << slotBits
	slotMask = numSlots - 1
)

// walkChunk is how many leases a walk of one slot's table (the scanner's
// sweep, Stats' count) visits before it releases the slot's lock and takes
// it again, so a slot holding many leases never blocks its calls for a
// whole pass.
const walkChunk = 1024

// slot is one share of the service's write-hot state: a shutdown-fence
// stripe, a lease table with its token counter, and an in-flight count.
// Submit, Lease and SwapBackend borrow the slot of the P (Go scheduler
// processor) they run on from Service.slotPool, which hands each P back the
// slot it put last; Ack and Nack go to the slot their token names. Calls on
// different Ps therefore write different cache lines. The pool is only a
// placement hint: two calls may share a slot, so every field is a lock, an
// atomic, guarded by the slot's mutex, or fixed at New.
type slot struct {
	//lf:contended the calls that borrow this slot and the settlements of its tokens write these
	slotHot
}

type slotHot struct {
	// fence is the slot's stripe of the shutdown fence: a call holds its
	// read lock from begin to end, and Shutdown, having flipped the state,
	// takes every slot's write lock once (see Service.enter).
	fence sync.RWMutex

	mu sync.Mutex // guards leases
	// leases maps each outstanding token the slot minted to its job and
	// deadline; taking a token out of it is the exactly-once settlement
	// arbiter among Ack, Nack and the scanner.
	leases map[uint64]leaseEntry

	// last is the last token the slot minted, or its starting point. Its
	// low slotBits bits are the slot's index, so adding numSlots mints the
	// next token.
	last atomic.Uint64
	// inFlight counts the slot's outstanding tokens: Lease adds one before
	// it publishes a token, and whoever takes the token subtracts it once
	// the job's next transition is complete, so it never goes negative.
	inFlight atomic.Int64

	lane int // the lane calls on this slot use: its index mod Config.Lanes
}

// leaseEntry is one outstanding lease in a slot's table.
type leaseEntry struct {
	j        *job
	deadline time.Time
}

// newSlots builds the slots for a service with the given lane count.
func newSlots(lanes int) *[numSlots]slot {
	sl := new([numSlots]slot)
	for i := range sl {
		sl[i].leases = map[uint64]leaseEntry{}
		sl[i].lane = i % lanes
	}
	startSlots(sl, 0)
	return sl
}

// startSlots makes every slot mint its next token above base: slot i
// resumes from the largest value at most base whose low bits are i, so its
// next token, numSlots higher, exceeds base.
func startSlots(sl *[numSlots]slot, base uint64) {
	for i := range sl {
		sl[i].last.Store(base&^slotMask | uint64(i))
	}
}

// mint returns a fresh token of this slot.
func (sl *slot) mint() uint64 { return sl.last.Add(numSlots) }

// put publishes a lease under token.
func (sl *slot) put(token uint64, e leaseEntry) {
	sl.mu.Lock()
	sl.leases[token] = e
	sl.mu.Unlock()
}

// take removes token and returns its job, or nil when the token is unknown
// or already taken: of several concurrent takes of one token, exactly one
// gets the job.
func (sl *slot) take(token uint64) *job {
	sl.mu.Lock()
	e, ok := sl.leases[token]
	if ok {
		delete(sl.leases, token)
	}
	sl.mu.Unlock()
	return e.j
}

// walk calls fn on every lease of the slot under its lock, releasing the
// lock and taking it again after every walkChunk leases; fn may delete the
// lease it is given and must not lock. A lease put or taken during the
// walk may or may not be visited; one that stays put is visited exactly
// once, since a Go map iteration survives changes made between its steps.
func (sl *slot) walk(fn func(token uint64, e leaseEntry)) {
	sl.mu.Lock()
	n := 0
	for token, e := range sl.leases {
		fn(token, e)
		if n++; n%walkChunk == 0 {
			sl.mu.Unlock()
			sl.mu.Lock()
		}
	}
	sl.mu.Unlock()
}

// slotOf returns the slot that minted token.
func (s *Service) slotOf(token uint64) *slot { return &s.slots[token&slotMask] }

// inFlight sums the slots' in-flight counts. The sum is not atomic, but
// every count is non-negative, so a sum that reads 0 saw every count at 0;
// once Shutdown's fence has passed no count rises again, so it stays 0.
func (s *Service) inFlight() int64 {
	var n int64
	for i := range s.slots {
		n += s.slots[i].inFlight.Load()
	}
	return n
}

// maxToken returns an upper bound on every token the slots have minted.
func (s *Service) maxToken() uint64 {
	var m uint64
	for i := range s.slots {
		m = max(m, s.slots[i].last.Load())
	}
	return m
}

// newSlotPool returns the pool that hands each P its slot. A P whose pool
// entry is gone (it never had one, a collection dropped it, or a call on
// the P still holds it) gets the next slot round-robin. The pool is its
// own allocation and refers to nothing but the slots: the runtime keeps
// every pool reachable until two collections after its last use, and a
// pool inside the Service would keep a shut-down Service and all its jobs
// alive that long.
func newSlotPool(sl *[numSlots]slot) *sync.Pool {
	var next atomic.Uint64
	return &sync.Pool{New: func() any { return &sl[(next.Add(1)-1)&slotMask] }}
}
