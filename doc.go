// Package repro reproduces Ostrovsky & Morrison, "Scaling Concurrent
// Queues by Using HTM to Profit from Failed Atomic Operations"
// (PPoPP 2020) in Go.
//
// The module carries two tracks. The simulated track (internal/machine,
// internal/core, internal/simqueue, driven by cmd/sbqsim and cmd/cohtrace)
// rebuilds the paper's hardware substrate — a directory-based MSI
// coherence protocol with an Intel-RTM-style HTM layer — because Go has
// no HTM intrinsics; TxCAS and every evaluated queue run on it and all
// figures of the paper regenerate from the same protocol dynamics the
// paper argues from. The native track (queue) is the adoptable Go
// library: generic MPMC queues on sync/atomic, including the modular
// baskets queue whose nodes embed the paper's scalable basket.
//
// This package itself holds only the repository-level benchmarks: one
// testing.B family per paper figure (see bench_test.go).
//
// See README.md, DESIGN.md and EXPERIMENTS.md.
package repro
