package obs

// Tee fans telemetry out to two recorders, so one instrumentation site can
// feed a Stats scope and a recorder that is not a Stats — e.g. a flight
// recorder (repro/internal/trace) that also wants every counter. Scopes of
// one Stats tree need no tee: a record on a child scope already counts in
// every ancestor's Snapshot (see Stats.Scope), and teeing two scopes of
// one tree would count the event twice in their common ancestor.
//
// Both sides are Normalized; when either is nil the other is returned
// as-is, so a disabled scope costs nothing and a fully disabled tee is a
// plain nil Recorder (preserving the single-nil-check discipline at
// instrumentation sites). When either side implements EventRecorder the
// result does too, forwarding events to every event-capable side, so
// tracing keeps working through a tee.
func Tee(a, b Recorder) Recorder {
	a, b = Normalize(a), Normalize(b)
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	ea, eaOK := a.(EventRecorder)
	eb, ebOK := b.(EventRecorder)
	if eaOK || ebOK {
		return &teeEvents{tee{a, b}, ea, eb}
	}
	return &tee{a, b}
}

type tee struct{ a, b Recorder }

// Inc implements Recorder on both sides.
//
//lf:hotpath
func (t *tee) Inc(c Counter) {
	t.a.Inc(c)
	t.b.Inc(c)
}

// Add implements Recorder on both sides.
//
//lf:hotpath
func (t *tee) Add(c Counter, d uint64) {
	t.a.Add(c, d)
	t.b.Add(c, d)
}

// Observe implements Recorder on both sides.
//
//lf:hotpath
func (t *tee) Observe(s Series, v uint64) {
	t.a.Observe(s, v)
	t.b.Observe(s, v)
}

// teeEvents is the event-capable tee: counters go to both sides, events to
// each side that can take them (ea/eb are pre-resolved at construction so
// the per-event cost is a nil check, not a type assertion).
type teeEvents struct {
	tee
	ea, eb EventRecorder
}

// Event implements EventRecorder on every event-capable side.
//
//lf:hotpath
func (t *teeEvents) Event(k EventKind, lane int32, arg uint64) {
	if t.ea != nil {
		t.ea.Event(k, lane, arg)
	}
	if t.eb != nil {
		t.eb.Event(k, lane, arg)
	}
}
