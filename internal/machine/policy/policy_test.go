package policy

import "testing"

// fixedRand returns a randN that always yields v (clamped below n) and
// counts draws.
func fixedRand(v uint64) (func(uint64) uint64, *int) {
	calls := new(int)
	return func(n uint64) uint64 {
		*calls++
		if v >= n {
			return n - 1
		}
		return v
	}, calls
}

func TestImmediateRetry(t *testing.T) {
	rand, calls := fixedRand(3)
	p := ImmediateRetry{Jitter: 10}

	if d := p.Decide(Abort{}, rand); d != (Decision{}) {
		t.Errorf("first attempt: %+v, want immediate try", d)
	}
	if *calls != 0 {
		t.Error("first attempt drew randomness")
	}
	if d := p.Decide(Abort{Attempt: 2, Conflict: true}, rand); d != (Decision{Delay: 3}) {
		t.Errorf("retry: %+v, want jittered delay 3", d)
	}
	if d := p.Decide(Abort{Attempt: 1, Disabled: true}, rand); !d.Fallback {
		t.Errorf("disabled: %+v, want fallback", d)
	}
	// A read-step conflict: the executor has already waited and re-read
	// the word, so the retry goes at once and draws nothing.
	drawn := *calls
	if d := p.Decide(Abort{Attempt: 3, Conflict: true, Nested: true}, rand); d != (Decision{}) {
		t.Errorf("read-step conflict: %+v, want immediate retry", d)
	}
	if *calls != drawn {
		t.Error("read-step conflict drew randomness")
	}
	// No jitter configured: pure immediate retry, no randomness drawn.
	rand2, calls2 := fixedRand(3)
	if d := (ImmediateRetry{}).Decide(Abort{Attempt: 5}, rand2); d != (Decision{}) {
		t.Errorf("jitterless retry: %+v", d)
	}
	if *calls2 != 0 {
		t.Error("jitterless policy drew randomness")
	}
}

func TestExponentialBackoffWindowGrowth(t *testing.T) {
	p := ExponentialBackoff{Base: 8, Max: 64}
	// randN receives the window bound; capture it per attempt.
	var windows []uint64
	rand := func(n uint64) uint64 {
		windows = append(windows, n)
		return n - 1
	}
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Decide(Abort{Attempt: attempt, Conflict: true}, rand)
		if d.Fallback {
			t.Fatalf("attempt %d fell back", attempt)
		}
	}
	want := []uint64{8, 16, 32, 64, 64, 64}
	for i, w := range want {
		if windows[i] != w {
			t.Fatalf("windows = %v, want %v", windows, want)
		}
	}
}

func TestExponentialBackoffEdges(t *testing.T) {
	rand, calls := fixedRand(0)
	if d := (ExponentialBackoff{Base: 8}).Decide(Abort{}, rand); d != (Decision{}) {
		t.Errorf("attempt 0: %+v, want no delay", d)
	}
	if *calls != 0 {
		t.Error("attempt 0 drew randomness")
	}
	if d := (ExponentialBackoff{}).Decide(Abort{Attempt: 3}, rand); d != (Decision{}) {
		t.Errorf("zero base: %+v, want no delay", d)
	}
	if d := (ExponentialBackoff{Base: 8}).Decide(Abort{Attempt: 1, Disabled: true}, rand); !d.Fallback {
		t.Errorf("disabled: %+v, want fallback", d)
	}
	// Default Max = Base<<6.
	var bound uint64
	(ExponentialBackoff{Base: 2}).Decide(Abort{Attempt: 60}, func(n uint64) uint64 {
		bound = n
		return 0
	})
	if bound != 2<<6 {
		t.Errorf("default max window = %d, want %d", bound, 2<<6)
	}
}

func TestAbortBudget(t *testing.T) {
	rand, _ := fixedRand(2)
	p := AbortBudget{Budget: 3, Inner: ImmediateRetry{Jitter: 10}}

	for attempt := 0; attempt < 3; attempt++ {
		if d := p.Decide(Abort{Attempt: attempt, Conflict: attempt > 0}, rand); d.Fallback {
			t.Fatalf("attempt %d within budget fell back", attempt)
		}
	}
	if d := p.Decide(Abort{Attempt: 3, Conflict: true}, rand); !d.Fallback {
		t.Errorf("budget exhausted: %+v, want fallback", d)
	}
	if d := p.Decide(Abort{Attempt: 1, Disabled: true}, rand); !d.Fallback {
		t.Errorf("disabled inside budget: %+v, want fallback", d)
	}
	// Zero budget is a pure software-path policy.
	if d := (AbortBudget{}).Decide(Abort{}, rand); !d.Fallback {
		t.Errorf("zero budget first attempt: %+v, want fallback", d)
	}
	// The inner policy paces but cannot end the fast path early.
	early := AbortBudget{Budget: 4, Inner: DelayedCAS{Delay: 9}}
	d := early.Decide(Abort{Attempt: 1, Conflict: true}, rand)
	if d.Fallback {
		t.Errorf("inner fallback leaked through the budget: %+v", d)
	}
	if d.Delay != 9 {
		t.Errorf("inner delay lost: %+v", d)
	}
}

func TestDelayedCAS(t *testing.T) {
	rand, calls := fixedRand(4)
	if d := (DelayedCAS{Delay: 675}).Decide(Abort{}, rand); d != (Decision{Fallback: true, Delay: 675}) {
		t.Errorf("Decide = %+v", d)
	}
	if *calls != 0 {
		t.Error("jitterless DelayedCAS drew randomness")
	}
	if d := (DelayedCAS{Delay: 675, Jitter: 100}).Decide(Abort{}, rand); d != (Decision{Fallback: true, Delay: 679}) {
		t.Errorf("jittered Decide = %+v", d)
	}
}
