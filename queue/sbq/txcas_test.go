package sbq_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/queue/queuetest"
	"repro/queue/sbq"
)

func TestConformanceTxCAS(t *testing.T) {
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		return sbq.New[uint64](sbq.WithEnqueuers(e), sbq.WithTxCAS())
	}))
}

func TestConformanceTxCASPolicy(t *testing.T) {
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		return sbq.New[uint64](sbq.WithEnqueuers(e),
			sbq.WithTxCAS(txcas.WithPolicy(policy.ImmediateRetry{Jitter: 64})))
	}))
}

// TestTxCASTelemetry drives contending enqueuers through the TxCAS append
// and checks the engine's accounting discipline: every conflict resolves
// as either a counted CAS failure or a soft abort, never both, and soft
// aborts carry sharer hints.
func TestTxCASTelemetry(t *testing.T) {
	rec := obs.New()
	const enq, per = 4, 2000
	q := sbq.New[uint64](
		sbq.WithEnqueuers(enq),
		sbq.WithTxCAS(txcas.WithWindow(2*time.Microsecond)),
		sbq.WithRecorder(rec),
	)
	var wg sync.WaitGroup
	for i := 0; i < enq; i++ {
		wg.Add(1)
		h := q.NewHandle()
		go func(base uint64) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Enqueue(base + uint64(j))
			}
		}(uint64(i * per))
	}
	wg.Wait()
	drain(t, q, enq*per)

	snap := rec.Snapshot()
	if got := snap.Counter(obs.EnqOps); got != enq*per {
		t.Fatalf("EnqOps=%d, want %d", got, enq*per)
	}
	// Every element landed, so the linking CASes that were issued and won
	// plus the appends absorbed by baskets account for all ops; the engine
	// must have recorded at least one attempt (the first link).
	if snap.Counter(obs.CASAttempts) == 0 {
		t.Fatal("no CAS attempts recorded in TxCAS mode")
	}
	// Soft aborts may or may not occur depending on scheduling; each one
	// names its winner, so it also counts a sharer hint.
	soft := snap.Counter(obs.TxSoftAborts)
	hints := snap.Counter(obs.TxSharerHints)
	if hints < soft {
		t.Errorf("TxSoftAborts=%d but TxSharerHints=%d: every soft abort must name its winner", soft, hints)
	}
	t.Logf("txcas telemetry: attempts=%d failures=%d soft=%d hints=%d",
		snap.Counter(obs.CASAttempts), snap.Counter(obs.CASFailures), soft, hints)
}
