package service

import "sync"

// leaseShards is the shard count of the lease table (Service.leases, keyed
// by lease token): a fixed power of two. Every Submit → Lease → Ack cycle
// touches its lease's shard twice (publish, take), from whichever
// goroutines lease and settle. Consecutive tokens come from one counter, so
// concurrent cycles usually land on different shards.
const leaseShards = 64

// shardedMap is a uint64-keyed map split into cache-line-padded shards, each
// a mutex and a map, so operations on different keys rarely meet on one lock
// or one cache line — the paper's §3 lesson (threads contending on one word
// serialize behind it) applied to the service's bookkeeping.
//
// Shard locks are leaves: every method holds at most one of them and runs no
// caller code under it, except sweep's due predicate, which must not lock.
type shardedMap[V any] struct {
	shards []mapShard[V] // len is a power of two
}

type mapShard[V any] struct {
	_  [64]byte // keep neighboring shards off this shard's lines
	mu sync.Mutex
	m  map[uint64]V
	_  [48]byte
}

func newShardedMap[V any](n int) shardedMap[V] {
	m := shardedMap[V]{shards: make([]mapShard[V], n)}
	for i := range m.shards {
		m.shards[i].m = map[uint64]V{}
	}
	return m
}

func (m *shardedMap[V]) shard(k uint64) *mapShard[V] {
	return &m.shards[k&uint64(len(m.shards)-1)]
}

func (m *shardedMap[V]) put(k uint64, v V) {
	sh := m.shard(k)
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// take removes k and returns its value: of several concurrent takes of one
// key, exactly one gets ok=true.
func (m *shardedMap[V]) take(k uint64) (V, bool) {
	sh := m.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	if ok {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
	return v, ok
}

// each calls fn on every value, one shard at a time: it copies a shard's
// values out under the shard lock and calls fn after releasing it. A value
// put or taken concurrently may or may not be visited; one that stays put
// is visited exactly once.
func (m *shardedMap[V]) each(fn func(V)) {
	var buf []V
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			buf = append(buf, v)
		}
		sh.mu.Unlock()
		for _, v := range buf {
			fn(v)
		}
		buf = buf[:0]
	}
}

// sweep removes every value for which due returns true, appending them to
// out. It walks one shard at a time, so its cost is the number of entries,
// and a concurrent take of a swept key gets ok=false exactly as if it had
// lost the race to another take.
func (m *shardedMap[V]) sweep(due func(V) bool, out []V) []V {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			if due(v) {
				delete(sh.m, k)
				out = append(out, v)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
