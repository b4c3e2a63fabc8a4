package trace

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// fakeClock is a deterministic, monotonically increasing test clock.
type fakeClock struct{ t atomic.Uint64 }

func (f *fakeClock) now() uint64 { return f.t.Add(1) }

func TestRecordAndSnapshot(t *testing.T) {
	clk := &fakeClock{}
	c := New(WithClock(clk.now))
	h := c.Handle("worker-0")

	c.Event(obs.EvEnqStart, obs.LaneDefault, 0)
	h.Event(obs.EvCASAttempt, obs.LaneDefault, 42)
	h.Event(obs.EvCohGetM, obs.MachineLane(3), 0x1000)

	tr := c.Snapshot()
	if tr.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", tr.Epoch)
	}
	if tr.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(tr.Events), tr.Events)
	}
	// Time-sorted merge across rings.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].TS < tr.Events[i-1].TS {
			t.Fatalf("events not sorted: %v", tr.Events)
		}
	}
	// LaneDefault resolves to the emitting handle's lane.
	if tr.Events[0].Lane != 0 || tr.Events[0].Kind != obs.EvEnqStart {
		t.Errorf("collector event = %v, want lane 0 enq_start", tr.Events[0])
	}
	if tr.Events[1].Lane != h.Lane() || tr.Events[1].Arg != 42 {
		t.Errorf("handle event = %v, want lane %d arg 42", tr.Events[1], h.Lane())
	}
	// Explicit machine lanes pass through untouched.
	if got := tr.Events[2].Lane; got != obs.MachineLane(3) {
		t.Errorf("machine lane = %d, want %d", got, obs.MachineLane(3))
	}
	if tr.Lanes[0] != "main" || tr.Lanes[h.Lane()] != "worker-0" {
		t.Errorf("lanes = %v", tr.Lanes)
	}
}

func TestSnapshotEpochCut(t *testing.T) {
	clk := &fakeClock{}
	c := New(WithClock(clk.now))

	c.Event(obs.EvEnqStart, obs.LaneDefault, 1)
	tr1 := c.Snapshot()
	c.Event(obs.EvEnqEnd, obs.LaneDefault, 2)
	tr2 := c.Snapshot()

	if len(tr1.Events) != 1 || tr1.Events[0].Kind != obs.EvEnqStart {
		t.Fatalf("epoch 1 = %v, want the single enq_start", tr1.Events)
	}
	if len(tr2.Events) != 1 || tr2.Events[0].Kind != obs.EvEnqEnd {
		t.Fatalf("epoch 2 = %v, want the single enq_end", tr2.Events)
	}
	if tr2.Epoch != tr1.Epoch+1 {
		t.Fatalf("epochs = %d, %d; want consecutive", tr1.Epoch, tr2.Epoch)
	}
	// Nothing left: a third snapshot is empty.
	if tr3 := c.Snapshot(); len(tr3.Events) != 0 || tr3.Dropped != 0 {
		t.Fatalf("epoch 3 = %v dropped=%d, want empty", tr3.Events, tr3.Dropped)
	}
}

func TestRingWraparound(t *testing.T) {
	clk := &fakeClock{}
	const size = 8
	c := New(WithClock(clk.now), WithRingSize(size))

	const total = 3*size + 5
	for i := 0; i < total; i++ {
		c.Event(obs.EvCASAttempt, obs.LaneDefault, uint64(i))
	}
	tr := c.Snapshot()
	if len(tr.Events) != size {
		t.Fatalf("got %d events, want the last %d", len(tr.Events), size)
	}
	if tr.Dropped != total-size {
		t.Fatalf("dropped = %d, want %d", tr.Dropped, total-size)
	}
	// Flight-recorder semantics: the survivors are the newest events.
	for i, e := range tr.Events {
		if want := uint64(total - size + i); e.Arg != want {
			t.Fatalf("event %d arg = %d, want %d", i, e.Arg, want)
		}
	}
}

func TestRingSizeRounding(t *testing.T) {
	r := newRing(5)
	if len(r.slots) != 8 {
		t.Errorf("ring size for 5 = %d, want 8", len(r.slots))
	}
	r = newRing(0)
	if len(r.slots) != DefaultRingSize {
		t.Errorf("ring size for 0 = %d, want %d", len(r.slots), DefaultRingSize)
	}
}

// TestConcurrentDrain hammers one collector from several writers while a
// reader snapshots concurrently, then verifies full accounting: every
// reserved slot is either drained exactly once or counted in Dropped, and
// no drained event is torn (its payload matches what some writer wrote).
func TestConcurrentDrain(t *testing.T) {
	clk := &fakeClock{}
	c := New(WithClock(clk.now), WithRingSize(64))

	const writers = 4
	const perWriter = 10_000
	handles := make([]*Handle, writers)
	for i := range handles {
		handles[i] = c.Handle("w")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var traces []*Trace
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				traces = append(traces, c.Snapshot())
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			for i := 0; i < perWriter; i++ {
				// Arg encodes (writer, seq) so torn reads are detectable.
				h.Event(obs.EvCASAttempt, obs.LaneDefault, uint64(w)<<32|uint64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	traces = append(traces, c.Snapshot())

	collected, dropped := uint64(0), uint64(0)
	nextSeq := map[int32]uint64{}
	for _, tr := range traces {
		dropped += tr.Dropped
		for _, e := range tr.Events {
			if e.Kind != obs.EvCASAttempt {
				t.Fatalf("torn event kind: %v", e)
			}
			w := int32(e.Arg >> 32)
			seq := e.Arg & 0xffffffff
			if w < 0 || int(w) >= writers {
				t.Fatalf("torn event writer: %v", e)
			}
			if lane := handles[w].Lane(); e.Lane != lane {
				t.Fatalf("event %v on lane %d, want %d (torn meta)", e, e.Lane, lane)
			}
			// Per-ring drains preserve program order per writer.
			if seq < nextSeq[w] {
				t.Fatalf("writer %d seq %d after %d: out of order", w, seq, nextSeq[w])
			}
			nextSeq[w] = seq + 1
			collected++
		}
	}
	if total := uint64(writers * perWriter); collected+dropped != total {
		t.Fatalf("collected %d + dropped %d != written %d", collected, dropped, total)
	}
	if collected == 0 {
		t.Fatal("no events survived; accounting vacuous")
	}
}

func TestMetaAndLaneCores(t *testing.T) {
	c := New()
	c.SetMeta("sockets", "2")
	c.SetMeta("variant", "sbq-txcas")
	m := map[int32]int{0: 0, 1: 1, 5: 9}
	c.SetMeta("lane_cores", FormatLaneCores(m))
	tr := c.Snapshot()

	if got := tr.MetaInt("sockets", -1); got != 2 {
		t.Errorf("sockets = %d, want 2", got)
	}
	if got := tr.MetaInt("absent", 7); got != 7 {
		t.Errorf("absent meta = %d, want default 7", got)
	}
	if tr.Meta["variant"] != "sbq-txcas" {
		t.Errorf("variant = %q", tr.Meta["variant"])
	}
	got := tr.LaneCores()
	if len(got) != len(m) {
		t.Fatalf("lane_cores = %v, want %v", got, m)
	}
	for l, core := range m {
		if got[l] != core {
			t.Errorf("lane %d core = %d, want %d", l, got[l], core)
		}
	}
}

func TestAbortArgPacking(t *testing.T) {
	arg := obs.AbortArg(obs.AbortConflict|obs.AbortTripped, 6, 0x2a40)
	if r := obs.AbortReason(arg); r != obs.AbortConflict|obs.AbortTripped {
		t.Errorf("reason = %#x", r)
	}
	if req := obs.AbortRequester(arg); req != 6 {
		t.Errorf("requester = %d, want 6", req)
	}
	if line := obs.AbortLine(arg); line != 0x2a40 {
		t.Errorf("line = %#x, want 0x2a40", line)
	}
	// Unknown requester round-trips as -1.
	if req := obs.AbortRequester(obs.AbortArg(obs.AbortExplicit, -1, 0)); req != -1 {
		t.Errorf("unknown requester = %d, want -1", req)
	}
}

func TestMachineLanes(t *testing.T) {
	l := obs.MachineLane(11)
	if !obs.IsMachineLane(l) {
		t.Error("machine lane not recognised")
	}
	if obs.LaneCore(l) != 11 {
		t.Errorf("core = %d, want 11", obs.LaneCore(l))
	}
	if obs.IsMachineLane(3) || obs.IsMachineLane(obs.LaneDefault) {
		t.Error("queue lanes misclassified as machine lanes")
	}
}

func TestEventKindNames(t *testing.T) {
	for k := obs.EventKind(0); k < obs.NumEventKinds; k++ {
		name := k.String()
		if name == "?" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := obs.EventKindOf(name)
		if !ok || back != k {
			t.Fatalf("EventKindOf(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := obs.EventKindOf("bogus"); ok {
		t.Error("EventKindOf accepted a bogus name")
	}
}
