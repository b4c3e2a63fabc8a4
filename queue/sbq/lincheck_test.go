package sbq

// This file empirically validates the paper's Theorem 5.3 — that the
// scalable basket is a linearizable implementation of the basket
// specification of §5.2.1 — by checking small concurrent histories
// against the sequential spec with an exhaustive Wing-Gong style search.
//
// Sequential spec (state: a set B):
//   - Insert(x)=true   adds x (x must not be present)
//   - Insert(x)=false  always legal (nondeterministic failure is allowed)
//   - Extract()=x      requires x in B; removes it
//   - Extract()=none   requires B empty
//   - Empty()=true     requires B empty
//   - Empty()=false    always legal (false negatives allowed)

import (
	"sync"
	"sync/atomic"
	"testing"
)

type bOpKind uint8

const (
	bInsert bOpKind = iota
	bExtract
	bEmpty
)

type bOp struct {
	kind       bOpKind
	arg        uint64 // insert argument
	val        uint64 // extract result
	ok         bool   // insert success / extract success / empty result
	start, end uint64
}

// linearizableBasket reports whether hist has a linearization obeying the
// basket spec. Exponential search; keep histories small (<= ~10 ops).
func linearizableBasket(hist []bOp) bool {
	n := len(hist)
	used := make([]bool, n)
	state := map[uint64]bool{}
	var dfs func(done int) bool
	dfs = func(done int) bool {
		if done == n {
			return true
		}
		// Earliest response among unused ops: any op whose invocation is
		// after that response cannot linearize before it.
		minEnd := ^uint64(0)
		for i, op := range hist {
			if !used[i] && op.end < minEnd {
				minEnd = op.end
			}
		}
		for i, op := range hist {
			if used[i] || op.start > minEnd {
				continue
			}
			// Try linearizing op next.
			legal := false
			var undo func()
			switch op.kind {
			case bInsert:
				if !op.ok {
					legal = true
					undo = func() {}
				} else if !state[op.arg] {
					legal = true
					state[op.arg] = true
					undo = func() { delete(state, op.arg) }
				}
			case bExtract:
				if op.ok {
					if state[op.val] {
						legal = true
						delete(state, op.val)
						undo = func() { state[op.val] = true }
					}
				} else if len(state) == 0 {
					legal = true
					undo = func() {}
				}
			case bEmpty:
				if !op.ok {
					legal = true
					undo = func() {}
				} else if len(state) == 0 {
					legal = true
					undo = func() {}
				}
			}
			if !legal {
				continue
			}
			used[i] = true
			if dfs(done + 1) {
				return true
			}
			used[i] = false
			undo()
		}
		return false
	}
	return dfs(0)
}

func TestLinCheckerSane(t *testing.T) {
	// A valid history.
	ok := []bOp{
		{kind: bInsert, arg: 1, ok: true, start: 0, end: 1},
		{kind: bExtract, val: 1, ok: true, start: 2, end: 3},
		{kind: bEmpty, ok: true, start: 4, end: 5},
	}
	if !linearizableBasket(ok) {
		t.Fatal("valid history rejected")
	}
	// Extract of a value never inserted.
	bad := []bOp{
		{kind: bInsert, arg: 1, ok: true, start: 0, end: 1},
		{kind: bExtract, val: 2, ok: true, start: 2, end: 3},
	}
	if linearizableBasket(bad) {
		t.Fatal("phantom extract accepted")
	}
	// Empty=true while an element is definitely present.
	bad2 := []bOp{
		{kind: bInsert, arg: 1, ok: true, start: 0, end: 1},
		{kind: bEmpty, ok: true, start: 2, end: 3},
	}
	if linearizableBasket(bad2) {
		t.Fatal("false empty accepted")
	}
	// Empty-extract while an element is definitely present.
	bad3 := []bOp{
		{kind: bInsert, arg: 1, ok: true, start: 0, end: 1},
		{kind: bExtract, ok: false, start: 2, end: 3},
	}
	if linearizableBasket(bad3) {
		t.Fatal("false empty-extract accepted")
	}
	// Concurrent insert/extract may order either way.
	conc := []bOp{
		{kind: bInsert, arg: 1, ok: true, start: 0, end: 10},
		{kind: bExtract, ok: false, start: 1, end: 2},
		{kind: bExtract, val: 1, ok: true, start: 3, end: 11},
	}
	if !linearizableBasket(conc) {
		t.Fatal("valid concurrent history rejected")
	}
}

// The basket under test is a published node's: bound 4, linked by handle
// 3, which placed ownValue before the history starts, so the three
// threads join as handles 0, 1 and 2 (cells 0, 1 and 2).
const (
	histBound  = 4
	histLinker = 3
	ownValue   = 1
)

// runBasketHistory executes a small randomized concurrent workload on b
// and returns the collected history (timestamps from one atomic clock).
// The history starts with the own element's insert, linearized at time 0.
func runBasketHistory(b *basket[uint64], seed int) []bOp {
	var clock atomic.Uint64
	tick := func() uint64 { return clock.Add(1) }
	const threads = 3
	histories := make([][]bOp, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(seed*977 + tid*131 + 1)
			rand := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for i := 0; i < 3; i++ {
				op := bOp{start: tick()}
				switch rand(3) {
				case 0:
					v := uint64(tid+1)*100 + uint64(i)
					op.kind = bInsert
					op.arg = v
					op.ok = b.join(tid, histLinker, v, nil)
				case 1:
					op.kind = bExtract
					op.val, op.ok = b.extract(nil, nil)
				case 2:
					op.kind = bEmpty
					op.ok = b.empty()
				}
				op.end = tick()
				histories[tid] = append(histories[tid], op)
			}
		}()
	}
	wg.Wait()
	all := []bOp{{kind: bInsert, arg: ownValue, ok: true}}
	for _, h := range histories {
		all = append(all, h...)
	}
	return all
}

// Theorem 5.3, empirically: every observed concurrent history of the
// scalable basket, its own element already placed, linearizes against the
// sequential basket spec.
func TestScalableBasketLinearizable(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for seed := 0; seed < trials; seed++ {
		h := runBasketHistory(newBasket[uint64](histBound, ownValue), seed)
		if !linearizableBasket(h) {
			t.Fatalf("seed %d: non-linearizable history: %+v", seed, h)
		}
	}
}
