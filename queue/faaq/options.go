package faaq

import "repro/internal/obs"

// Option configures a Queue built with New.
type Option func(*options)

type options struct {
	rec obs.Recorder
}

// WithRecorder attaches a telemetry recorder (see repro/internal/obs): the
// queue reports operation counts and per-cell races lost (counted as
// retries — an FAA queue has no CAS on its claim path to fail). A nil or
// obs.Nop recorder disables telemetry at the cost of one nil check per
// event site.
func WithRecorder(r obs.Recorder) Option {
	return func(o *options) { o.rec = obs.Normalize(r) }
}
