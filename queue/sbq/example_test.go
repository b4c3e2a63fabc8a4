package sbq_test

import (
	"fmt"
	"sort"
	"sync"

	"repro/queue/sbq"
)

// The basic pattern: one handle per producer goroutine, shared dequeues.
func Example() {
	const producers = 2
	q := sbq.New[int](sbq.WithEnqueuers(producers))

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h := q.NewHandle()
		base := (p + 1) * 10
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				h.Enqueue(base + i)
			}
		}()
	}
	wg.Wait()

	var got []int
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		got = append(got, v)
	}
	sort.Ints(got)
	fmt.Println(got)
	// Output: [10 11 12 20 21 22]
}
