package service

import "time"

// The delay heap holds jobs whose redelivery the retry policy paced: a
// hand-rolled binary min-heap on the pacing deadline rather than a
// container/heap instantiation, since the interface indirection buys
// nothing here and the concrete type keeps ScanOnce allocation-light.
// Service.dmu guards it. Delayed jobs are rare (only failed deliveries
// reach it) and every entry is live: a job leaves the heap only when the
// scanner pops it back into its queue.
//
// Lease deadlines need no heap: they live beside their tokens in the
// slots' lease tables, which the scanner walks (see Service.scanOnce).

// jobAt is a delayed job: when at passes, j moves back to its queue.
type jobAt struct {
	at time.Time
	j  *job
}

type jobHeap struct{ h []jobAt }

func (p *jobHeap) len() int     { return len(p.h) }
func (p *jobHeap) min() jobAt   { return p.h[0] }
func (p *jobHeap) push(e jobAt) { p.h = append(p.h, e); siftUpJob(p.h) }
func (p *jobHeap) pop() jobAt {
	top := p.h[0]
	last := len(p.h) - 1
	p.h[0] = p.h[last]
	p.h[last] = jobAt{} // drop the *job reference
	p.h = p.h[:last]
	siftDownJob(p.h)
	return top
}

func siftUpJob(h []jobAt) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].at.Before(h[parent].at) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDownJob(h []jobAt) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && h[l].at.Before(h[least].at) {
			least = l
		}
		if r < len(h) && h[r].at.Before(h[least].at) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// delayedJobs returns the delay heap's entries grouped by tenant, in no
// particular order.
func (s *Service) delayedJobs() map[*tenant][]jobAt {
	out := map[*tenant][]jobAt{}
	s.dmu.Lock()
	for _, e := range s.delayed.h {
		out[e.j.tenant] = append(out[e.j.tenant], e)
	}
	s.dmu.Unlock()
	return out
}
