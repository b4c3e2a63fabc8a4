package faaq

import "repro/internal/obs"

// Option configures a Queue built with New.
type Option func(*options)

type options struct {
	rec *obs.Stats
}

// WithRecorder attaches a telemetry recorder (see repro/internal/obs): the
// queue reports operation counts and per-cell races lost (counted as
// retries — an FAA queue has no CAS on its claim path to fail), and emits
// timeline events when r carries a flight recorder. A nil recorder
// disables telemetry at the cost of one nil check per event site.
func WithRecorder(r *obs.Stats) Option {
	return func(o *options) { o.rec = r }
}
