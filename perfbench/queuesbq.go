package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/registry"
)

// The queue-sbq workload: each client runs enqueue-then-dequeue pairs on a
// prefilled SBQ-CAS queue built through the registry, in GC mode (the
// registry default). SBQ-TxCAS is left out until its concurrent-enqueue
// panic (ROADMAP item 1) is fixed.
const (
	sbqEntry      = "SBQ-CAS"
	sbqPrefill    = 4096
	sbqLatStride  = 16   // mean pairs between timed pairs
	sbqSpanStride = 4096 // mean pairs between traced pairs (traced phase)

	seqBits = 56 // a value is producer<<seqBits | sequence number
	seqMask = 1<<seqBits - 1
)

var errEmptyDequeue = errors.New("dequeue found the prefilled queue empty")

type sbqSystem struct {
	epoch time.Time
	rec   *obs.Stats // nil when tracing is off: the registry default
	prod  []queue.BatchQueue[uint64]
	cons  queue.BatchQueue[uint64]

	// side[i] is owned by worker i; side[clients] is the end-of-run drain.
	side []*sbqSide
}

// sbqSide is one client's view of the queue: the next sequence number it
// enqueues as a producer, and, per producer p, the tally of sequence
// numbers it dequeued and the latest one (per-producer FIFO means it only
// grows). Padded so two clients' counters never share a cache line.
type sbqSide struct {
	_    [64]byte
	next uint64
	seen [clients]tally
	last [clients]int64
	_    [64]byte
}

func buildSBQ(traced bool) (system, error) {
	cfg := registry.Config{Producers: clients}
	s := &sbqSystem{epoch: time.Now()}
	if traced {
		s.rec = obs.New()
		cfg.Recorder = s.rec
	}
	inst, err := registry.Build(sbqEntry, cfg)
	if err != nil {
		return nil, err
	}
	s.cons = inst.ConsumerView(0)
	for i := 0; i <= clients; i++ {
		sd := &sbqSide{}
		for p := range sd.last {
			sd.last[p] = -1
		}
		s.side = append(s.side, sd)
	}
	for i := 0; i < clients; i++ {
		s.prod = append(s.prod, inst.ProducerView(i))
	}
	for k := 0; k < sbqPrefill; k++ {
		s.prod[0].Enqueue(s.side[0].next)
		s.side[0].next++
	}
	return s, nil
}

func (s *sbqSystem) now() int64 { return int64(time.Since(s.epoch)) }

func (s *sbqSystem) unit(w *worker, st *winStats) {
	id := w.id
	v := uint64(id)<<seqBits | s.side[id].next
	s.side[id].next++
	unit, spanOn := w.sampleSpan()
	timed := w.sampleLat()
	var got uint64
	var ok bool
	switch {
	case w.traced:
		t0 := s.now()
		s.prod[id].Enqueue(v)
		t1 := s.now()
		got, ok = s.cons.Dequeue()
		t2 := s.now()
		w.ops[opEnqueue].add(t1 - t0)
		w.ops[opDequeue].add(t2 - t1)
		if timed {
			st.lat.add(t2 - t0)
		}
		if spanOn {
			w.span("pair", unit, spanUnit, 0, t0, t2)
			w.span("queue.enqueue", unit, spanUnit+1, spanUnit, t0, t1)
			w.span("queue.dequeue", unit, spanUnit+2, spanUnit, t1, t2)
		}
	case timed:
		t0 := s.now()
		s.prod[id].Enqueue(v)
		got, ok = s.cons.Dequeue()
		st.lat.add(s.now() - t0)
	default:
		s.prod[id].Enqueue(v)
		got, ok = s.cons.Dequeue()
	}
	if !ok {
		w.fail(errEmptyDequeue)
		return
	}
	if err := s.record(id, got); err != nil {
		w.fail(err)
	}
}

// record checks one dequeued value against consumer c's view: it must
// name a known producer and follow that producer's previous value.
func (s *sbqSystem) record(c int, v uint64) error {
	p, seq := int(v>>seqBits), v&seqMask
	if p >= clients {
		return fmt.Errorf("dequeued value %#x names no producer", v)
	}
	sd := s.side[c]
	if int64(seq) <= sd.last[p] {
		return fmt.Errorf("consumer %d got producer %d's #%d after #%d (per-producer FIFO broken)", c, p, seq, sd.last[p])
	}
	sd.last[p] = int64(seq)
	sd.seen[p].add(seq)
	return nil
}

// verify drains the queue and checks exactly-once delivery: every value
// each producer enqueued came out exactly once, across all consumers.
func (s *sbqSystem) verify([]*worker) []string {
	var bad []string
	for {
		v, ok := s.cons.Dequeue()
		if !ok {
			break
		}
		if err := s.record(clients, v); err != nil {
			bad = append(bad, "drain: "+err.Error())
		}
	}
	for p := 0; p < clients; p++ {
		var got tally
		for _, sd := range s.side {
			got.merge(sd.seen[p])
		}
		n := s.side[p].next
		switch want := tallyRange(0, n); {
		case got.n != want.n:
			bad = append(bad, fmt.Sprintf("producer %d: %d values dequeued, %d enqueued", p, got.n, n))
		case got != want:
			bad = append(bad, fmt.Sprintf("producer %d: values lost and others dequeued twice", p))
		}
	}
	return bad
}

func (s *sbqSystem) layers(r *report, ph *phase) {
	enq, deq := ph.opHist(opEnqueue), ph.opHist(opDequeue)
	for _, q := range []struct {
		name string
		h    *hist
		q    float64
	}{
		{"queue.enqueue_ns_p50", enq, 0.50},
		{"queue.enqueue_ns_p99", enq, 0.99},
		{"queue.dequeue_ns_p50", deq, 0.50},
		{"queue.dequeue_ns_p99", deq, 0.99},
	} {
		v, _ := q.h.quantile(q.q)
		r.set(q.name, v)
	}
	snap := s.rec.Snapshot()
	queueCounters(r, snap)
	c := snap.Counters
	enqOps := float64(c[obs.EnqOps])
	r.set("cas.attempts_per_enqueue", ratio(float64(c[obs.CASAttempts]), enqOps))
	r.set("cas.failure_ratio", ratio(float64(c[obs.CASFailures]), float64(c[obs.CASAttempts])))
	// Every enqueue first fills its own node's basket cell; the inserts
	// beyond that are joins into a winner's basket after a failed linking
	// CAS — the paper's profit from failure.
	joins := float64(c[obs.BasketInserts]) - enqOps
	r.set("basket.insert_ratio", ratio(joins, joins+float64(c[obs.BasketInsertFails])))
	r.set("basket.extract_ratio", ratio(float64(c[obs.BasketExtracts]),
		float64(c[obs.BasketExtracts]+c[obs.BasketExtractFails])))
}

// queueCounters sets the queue-layer ratios every workload's obs counters
// support. Empty dequeues are counted per probed (sub-)queue; steal misses
// per sharded-front-end dequeue that found every shard empty.
func queueCounters(r *report, snap obs.Snapshot) {
	c := snap.Counters
	r.set("queue.dequeue_empty_ratio", ratio(float64(c[obs.DeqEmpty]), float64(c[obs.DeqOps]+c[obs.DeqEmpty])))
	r.set("queue.steal_ratio", ratio(float64(c[obs.DeqSteals]), float64(c[obs.DeqOps])))
	r.set("queue.steal_miss_ratio", ratio(float64(c[obs.DeqStealMisses]), float64(c[obs.DeqOps]+c[obs.DeqStealMisses])))
	r.set("queue.retries_per_op", ratio(float64(c[obs.EnqRetries]+c[obs.DeqRetries]),
		float64(c[obs.EnqOps]+c[obs.DeqOps])))
}

func (s *sbqSystem) close() error { return nil }
