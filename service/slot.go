package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// The service's write-hot state is split into numSlots slots. A lease
// token's and a job id's low slotBits bits name the slot that minted it.
const (
	slotBits = 6
	numSlots = 1 << slotBits
	slotMask = numSlots - 1
)

// ringSize is the number of lease cells in a slot's ring. A token's home
// cell is its sequence, token>>slotBits, mod ringSize.
const ringSize = 64

// walkChunk is how many leases of a slot's overflow map a walk (the
// scanner's sweep, Stats' count) visits before it releases the slot's lock
// and takes it again, so a slot holding many leases never blocks its calls
// for a whole pass.
const walkChunk = 1024

// slot is one share of the service's write-hot state: a lease table with
// its token counter, a job-id counter, and an in-flight count that is also
// the slot's share of the shutdown fence. Submit, Lease and SwapBackend
// borrow the slot of the P (Go scheduler processor) they run on from
// Service.slotPool, which hands each P back the slot it put last; Ack and
// Nack go to the slot their token names. Calls on different Ps therefore
// write different cache lines. The pool is only a placement hint: two calls
// may share a slot, so every field is a lock, an atomic, guarded by the
// slot's mutex, or fixed at New.
type slot struct {
	//lf:contended the calls that borrow this slot and the settlements of its tokens write these
	slotHot
}

type slotHot struct {
	mu sync.Mutex // guards ring and leases
	// ring and leases map each outstanding token the slot minted to its
	// job and deadline: a lease sits in its token's home cell of ring, or
	// in leases when that cell was held when it was put. Both are
	// allocated on first use. Taking a token out of them is the
	// exactly-once settlement arbiter among Ack, Nack and the scanner.
	ring   *[ringSize]leaseCell
	leases map[uint64]leaseEntry

	// lastToken and lastID are the last lease token and job id the slot
	// minted, or their starting points. Their low slotBits bits are the
	// slot's index, so adding numSlots mints the next one.
	lastToken atomic.Uint64
	lastID    atomic.Uint64
	// inFlight counts the calls that entered the slot (see Service.enter)
	// and have not ended, and the slot's outstanding tokens: a Lease that
	// delivers hands its call's count to the token it publishes, and
	// whoever takes the token subtracts it once the job's next transition
	// is complete, so it never goes negative.
	inFlight atomic.Int64

	lane int     // the lane calls on this slot use: its index mod Config.Lanes
	_    [8]byte // pads the slot to one 64 B line
}

// leaseEntry is one outstanding lease in a slot's table.
type leaseEntry struct {
	j        *job
	deadline time.Time
}

// leaseCell is one cell of a slot's ring: a lease and its token, or a free
// cell with token 0, which no slot mints.
type leaseCell struct {
	token uint64
	leaseEntry
}

// newSlots builds the slots for a service with the given lane count.
func newSlots(lanes int) *[numSlots]slot {
	sl := new([numSlots]slot)
	for i := range sl {
		sl[i].lane = i % lanes
	}
	startSlots(sl, 0, 0)
	return sl
}

// startSlots makes every slot mint its next token above tokenBase and its
// next job id above idBase: slot i resumes each from the largest value at
// most the base whose low bits are i, so the next one, numSlots higher,
// exceeds the base.
func startSlots(sl *[numSlots]slot, tokenBase, idBase uint64) {
	for i := range sl {
		sl[i].lastToken.Store(tokenBase&^slotMask | uint64(i))
		sl[i].lastID.Store(idBase&^slotMask | uint64(i))
	}
}

// mint returns a fresh token of this slot.
func (sl *slot) mint() uint64 { return sl.lastToken.Add(numSlots) }

// newID returns a fresh job id of this slot.
func (sl *slot) newID() uint64 { return sl.lastID.Add(numSlots) }

// put publishes a lease under token, in its home cell if that is free.
func (sl *slot) put(token uint64, e leaseEntry) {
	sl.mu.Lock()
	if sl.ring == nil {
		sl.ring = new([ringSize]leaseCell)
	}
	if c := &sl.ring[token>>slotBits%ringSize]; c.token == 0 {
		*c = leaseCell{token, e}
	} else {
		if sl.leases == nil {
			sl.leases = map[uint64]leaseEntry{}
		}
		sl.leases[token] = e
	}
	sl.mu.Unlock()
}

// take removes token and returns its job, or nil when the token is unknown
// or already taken: of several concurrent takes of one token, exactly one
// gets the job.
func (sl *slot) take(token uint64) *job {
	sl.mu.Lock()
	var j *job
	if c := sl.cell(token); c != nil && c.token == token {
		j = c.j
		*c = leaseCell{}
	} else if e, ok := sl.leases[token]; ok {
		j = e.j
		delete(sl.leases, token)
	}
	sl.mu.Unlock()
	return j
}

// cell returns token's home cell, or nil before the slot's first lease.
func (sl *slot) cell(token uint64) *leaseCell {
	if sl.ring == nil {
		return nil
	}
	return &sl.ring[token>>slotBits%ringSize]
}

// walk calls fn on every lease of the slot under its lock and removes the
// lease when fn returns true; fn must not lock. It visits the ring in one
// hold of the lock and the overflow map in chunks, releasing the lock and
// taking it again after every walkChunk leases. A lease put or taken
// during the walk may or may not be visited; one that stays put is visited
// exactly once, since a lease never moves between the ring and the map and
// a Go map iteration survives changes made between its steps.
func (sl *slot) walk(fn func(token uint64, e leaseEntry) bool) {
	sl.mu.Lock()
	if sl.ring != nil {
		for i := range sl.ring {
			if c := &sl.ring[i]; c.token != 0 && fn(c.token, c.leaseEntry) {
				*c = leaseCell{}
			}
		}
	}
	n := 0
	for token, e := range sl.leases {
		if fn(token, e) {
			delete(sl.leases, token)
		}
		if n++; n%walkChunk == 0 {
			sl.mu.Unlock()
			sl.mu.Lock()
		}
	}
	sl.mu.Unlock()
}

// slotOf returns the slot that minted token.
func (s *Service) slotOf(token uint64) *slot { return &s.slots[token&slotMask] }

// inFlight sums the slots' in-flight counts: the calls still running past
// enter and the outstanding tokens. The sum is not atomic, but every count
// is non-negative, so a sum that reads 0 read every slot at 0 when it read
// it. Once Shutdown has flipped the state, a count rises only while a call
// that will be turned away holds it, so the 0 reading shows that every
// call that entered while serving has ended and its token, if any, settled.
func (s *Service) inFlight() int64 {
	var n int64
	for i := range s.slots {
		n += s.slots[i].inFlight.Load()
	}
	return n
}

// lastMinted returns upper bounds on every token and every job id the
// slots have minted.
func (s *Service) lastMinted() (token, id uint64) {
	for i := range s.slots {
		token = max(token, s.slots[i].lastToken.Load())
		id = max(id, s.slots[i].lastID.Load())
	}
	return token, id
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
