// Package txcas is the native software-TxCAS engine for one-shot links.
//
// The paper's core trick (§3) is that a CAS built from a hardware
// transaction turns *failure* into information: a losing TxCAS learns that
// it lost, and who beat it, without serializing through the cache
// coherence protocol. The simulated track reproduces that literally
// (repro/internal/core over repro/internal/machine). Go exposes no HTM, so
// this package approximates it in software, in the spirit of Zhang/Chabbi
// et al.'s optimistic-concurrency-for-Go work (PAPERS.md): GuardedCAS
// watches the link it is about to CAS during a calibrated speculation
// window (the transaction body and the §4.1 intra-transaction delay), and
// abandons the CAS once the link fills — the read-step abort — naming the
// winner from the node it finds there. repro/queue/sbq's try_append is its
// one caller.
package txcas
