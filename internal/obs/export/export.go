// Package export renders the repository's internal observability state
// (repro/internal/obs counters, histograms and snapshots) as a
// dependency-free Prometheus text exposition, format 0.0.4 (Write), and
// parses and validates the same format (Parse, CheckMonotonic) for the
// sbqtop dashboard and the CI metrics-smoke job.
//
// A page is a pure function of the state it is given: Write keeps nothing
// between calls, so two renders of the same state are byte-identical and
// no scraper changes what another reads. Ratios such as the CAS-failure
// and steal-miss rates are left to the reader, from the exported counters
// (PromQL rate(), or sbqtop between its own scrapes). Sources are read
// through obs.Stats.Snapshot (atomic loads only), so exporting never adds
// work to queue hot paths. Scrape-side allocation is fine and unavoidable.
package export

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// ContentType is the Content-Type of Prometheus text exposition 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// namespace prefixes every exported metric name.
const namespace = "sbq"

// Labels is one metric's label set. Rendering is canonical (sorted by key),
// so equal maps produce byte-identical label strings.
type Labels map[string]string

// Sample is one gauge observation: a metric name, a label set, and a value.
// Write renders these; the parser also produces them.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// LabeledSnapshot pairs an obs.Snapshot with the label set identifying its
// scope (tenant, queue, shard, ...).
type LabeledSnapshot struct {
	Labels Labels
	Snap   obs.Snapshot
}

// CounterName returns counter c's exposition name (sbq_<name>_total).
func CounterName(c obs.Counter) string { return namespace + "_" + c.String() + "_total" }

// SeriesName returns series s's exposition histogram name (sbq_<name>).
func SeriesName(s obs.Series) string { return namespace + "_" + s.String() }

// Write renders one scrape in exposition format 0.0.4: every nonzero
// counter of snaps as a *_total family, every non-empty latency series as
// a histogram family (cumulative le buckets on the power-of-two bounds of
// repro/internal/stats), then gauges. Series keep the order of snaps.
// Zero-valued counters and empty histograms are omitted, so a series that
// has appeared once can only keep appearing (scrape-to-scrape monotonicity
// is checkable; see CheckMonotonic).
func Write(w io.Writer, snaps []LabeledSnapshot, gauges []Sample) error {
	bw := &errWriter{w: w}
	for ct := obs.Counter(0); ct < obs.NumCounters; ct++ {
		writeCounterFamily(bw, ct, snaps)
	}
	for se := obs.Series(0); se < obs.NumSeries; se++ {
		writeHistogramFamily(bw, se, snaps)
	}
	writeGaugeFamilies(bw, gauges)
	return bw.err
}

// errWriter latches the first write error so the formatting code stays
// check-free.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

func writeCounterFamily(w *errWriter, ct obs.Counter, sources []LabeledSnapshot) {
	name := CounterName(ct)
	wrote := false
	for _, src := range sources {
		v := src.Snap.Counters[ct]
		if v == 0 {
			continue
		}
		if !wrote {
			w.printf("# HELP %s Total %s events.\n# TYPE %s counter\n", name, ct, name)
			wrote = true
		}
		w.printf("%s%s %s\n", name, renderLabels(src.Labels), strconv.FormatUint(v, 10))
	}
}

func writeHistogramFamily(w *errWriter, se obs.Series, sources []LabeledSnapshot) {
	name := SeriesName(se)
	wrote := false
	for _, src := range sources {
		h := src.Snap.Series[se]
		if h.Count == 0 {
			continue
		}
		if !wrote {
			w.printf("# HELP %s Latency histogram %s (nanoseconds, power-of-two buckets).\n# TYPE %s histogram\n", name, se, name)
			wrote = true
		}
		labels := src.Labels
		var cum uint64
		// Bucket i of stats.Histogram holds integer values v with
		// bits.Len64(v) == i, i.e. v <= 2^i - 1, so the inclusive
		// upper bound le="2^i-1" is exact. The final (clamping) bucket
		// is unbounded and folds into +Inf.
		for i := 0; i < stats.HistBuckets-1; i++ {
			cum += h.Buckets[i]
			le := uint64(1)<<uint(i) - 1
			w.printf("%s_bucket%s %d\n", name, renderLabelsLE(labels, strconv.FormatUint(le, 10)), cum)
		}
		w.printf("%s_bucket%s %d\n", name, renderLabelsLE(labels, "+Inf"), h.Count)
		w.printf("%s_sum%s %s\n", name, renderLabels(labels), strconv.FormatUint(h.Sum, 10))
		w.printf("%s_count%s %d\n", name, renderLabels(labels), h.Count)
	}
}

func writeGaugeFamilies(w *errWriter, samples []Sample) {
	byName := make(map[string][]Sample)
	var names []string
	for _, s := range samples {
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	sort.Strings(names)
	for _, name := range names {
		w.printf("# TYPE %s gauge\n", name)
		for _, s := range byName[name] {
			w.printf("%s%s %s\n", name, renderLabels(s.Labels), formatValue(s.Value))
		}
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderLabels renders a label set canonically: keys sorted, values
// escaped, empty set rendered as "".
func renderLabels(l Labels) string { return renderLabelsLE(l, "") }

func renderLabelsLE(l Labels, le string) string {
	if len(l) == 0 && le == "" {
		return ""
	}
	keys := make([]string, 0, len(l)+1)
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
