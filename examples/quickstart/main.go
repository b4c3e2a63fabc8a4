// Quickstart: create a scalable baskets queue, hand each producer
// goroutine a handle, and drain it from consumers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/queue/sbq"
)

func main() {
	const producers = 4
	const consumers = 2
	const perProducer = 10_000
	const want = producers * perProducer

	// SBQ sizes each node's basket from the producer count; every
	// producer goroutine needs its own handle (it owns a place in every basket).
	q := sbq.New[string](sbq.WithEnqueuers(producers))

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h := q.NewHandle() // create in the parent; handles must not be shared
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				h.Enqueue(fmt.Sprintf("producer-%d message-%d", p, i))
			}
		}()
	}

	var delivered atomic.Int64
	var seen sync.Map
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for delivered.Load() < want {
				if v, ok := q.Dequeue(); ok {
					if _, dup := seen.LoadOrStore(v, true); dup {
						panic("duplicate delivery: " + v)
					}
					delivered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("delivered %d messages exactly once across %d consumers\n",
		delivered.Load(), consumers)
}
