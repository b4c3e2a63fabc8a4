// Package a exercises the typedatomic analyzer.
package a

import "sync/atomic"

type counter struct {
	hits  uint32
	bytes uint64
	n     atomic.Uint64
}

func add32(c *counter) {
	atomic.AddUint32(&c.hits, 1) // want `package-level atomic.AddUint32: declare the word as atomic.Uint32 and call its Add method`
}

func load64(c *counter) uint64 {
	return atomic.LoadUint64(&c.bytes) // want `package-level atomic.LoadUint64: declare the word as atomic.Uint64 and call its Load method`
}

// Typed atomics are the fix: their methods are never reported.
func typed(c *counter) uint64 {
	c.n.Add(1)
	return c.n.Load()
}

func suppressed(c *counter) {
	//lint:ignore typedatomic the word is shared with code outside this package
	atomic.StoreUint64(&c.bytes, 0)
}
