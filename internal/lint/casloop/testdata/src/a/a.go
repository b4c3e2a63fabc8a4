// Package a exercises the casloop analyzer.
package a

import (
	"runtime"
	"sync/atomic"
	"time"

	"obs"
)

func bareLoop(p *atomic.Uint64) {
	for {
		v := p.Load()
		if p.CompareAndSwap(v, v+1) { // want `unbounded CAS retry loop`
			return
		}
	}
}

func condLoop(p *atomic.Uint32) {
	for !p.CompareAndSwap(0, 1) { // want `unbounded CAS retry loop`
	}
}

func legacyLoop(p *uint64) {
	for {
		v := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, v, v+1) { // want `unbounded CAS retry loop`
			return
		}
	}
}

// A three-clause for is considered bounded.
func boundedLoop(p *atomic.Uint64) bool {
	for i := 0; i < 8; i++ {
		v := p.Load()
		if p.CompareAndSwap(v, v+1) {
			return true
		}
	}
	return false
}

func goschedLoop(p *atomic.Uint64) {
	for {
		v := p.Load()
		if p.CompareAndSwap(v, v+1) {
			return
		}
		runtime.Gosched()
	}
}

func sleepLoop(p *atomic.Uint64) {
	for {
		v := p.Load()
		if p.CompareAndSwap(v, v+1) {
			return
		}
		time.Sleep(time.Microsecond)
	}
}

func spinWait() {}

func spinLoop(p *atomic.Uint64) {
	for {
		v := p.Load()
		if p.CompareAndSwap(v, v+1) {
			return
		}
		spinWait()
	}
}

func telemetryLoop(p *atomic.Uint64, r *obs.Stats) {
	for {
		v := p.Load()
		if p.CompareAndSwap(v, v+1) {
			return
		}
		r.Inc(1)
	}
}

// The CAS belongs to the innermost loop: the outer loop's telemetry
// does not pace the inner one.
func nestedLoop(p *atomic.Uint64, r *obs.Stats) {
	for {
		r.Inc(1)
		for {
			v := p.Load()
			if p.CompareAndSwap(v, v+1) { // want `unbounded CAS retry loop`
				return
			}
		}
	}
}

func suppressedLoop(p *atomic.Uint64) {
	for {
		v := p.Load()
		//lint:ignore casloop monotonic helping loop, failure implies progress
		if p.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// A CAS outside any loop is fine.
func single(p *atomic.Uint64) bool { return p.CompareAndSwap(0, 1) }

// Loops without CAS are not candidates.
func plainSpin(p *atomic.Uint64) {
	for p.Load() == 0 {
	}
}
