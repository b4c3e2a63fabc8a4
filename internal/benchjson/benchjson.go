// Package benchjson defines the schema-versioned JSON record emitted by
// cmd/sbqbench (-bench-json) and the comparison logic behind its -diff
// mode and the CI benchmark smoke job. The format is deliberately small:
// one file per benchmark invocation, one result per (impl, workload,
// threads) cell, environment fields so baselines from different machines
// are never silently compared as equals.
package benchjson

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// Schema identifies the file format; readers reject files with a
// different schema string rather than misinterpreting them.
const Schema = "sbqbench/v1"

// DefaultThreshold is the relative slowdown -diff flags as a regression
// when no explicit threshold is given. Wall-clock benchmarks on shared
// machines are noisy; 10% keeps the report-only signal usable.
const DefaultThreshold = 0.10

// Result is one measured cell.
type Result struct {
	Impl     string `json:"impl"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	// Batch is the batch size driven through EnqueueBatch/DequeueBatch;
	// zero means the single-operation path (plain Enqueue/Dequeue), which
	// also keeps pre-batch baseline files comparable: their cells decode
	// with Batch zero and match new single-op runs.
	Batch int `json:"batch,omitempty"`
	// Shards is the explicit shard count the queue was built with; zero
	// means the entry's default (or an unsharded entry).
	Shards int `json:"shards,omitempty"`
	// Pooled is set only by records made before pooled-node mode was
	// deleted (BENCH_PR7.json's "pooled" cells, which recycled nodes
	// through epoch-guarded freelists). Every run since measures GC mode
	// and leaves it false. It stays in the cell key so such a cell never
	// matches its GC-mode twin; old pooled cells read "baseline only".
	Pooled bool `json:"pooled,omitempty"`
	// TxWindowNS is the TxCAS speculation window in nanoseconds for cells
	// measured with an explicit -txcas sweep value; zero means the entry's
	// default window (or a non-TxCAS entry), so pre-TxCAS baselines decode
	// to comparable cells.
	TxWindowNS int64   `json:"txcas_window_ns,omitempty"`
	Ops        int     `json:"ops_per_thread"`
	NSPerOp    float64 `json:"ns_per_op"`
	// Telemetry counters, recorded when the run was invoked with -stats;
	// zero otherwise. They identify where a speedup comes from — the TxCAS
	// entries must show soft aborts displacing issued-and-failed CASes (the
	// paper's §3 profit) — and are ignored by Diff, which compares ns/op.
	CASAttempts   uint64 `json:"cas_attempts,omitempty"`
	CASFailures   uint64 `json:"cas_failures,omitempty"`
	TxSoftAborts  uint64 `json:"tx_soft_aborts,omitempty"`
	TxSharerHints uint64 `json:"tx_sharer_hints,omitempty"`
	// CASFailureRate is CASFailures / CASAttempts for the cell (0 when no
	// attempts were recorded).
	CASFailureRate float64 `json:"cas_failure_rate,omitempty"`
}

// key identifies the cell a result belongs to, for baseline matching.
func (r Result) key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%t|%d", r.Impl, r.Workload, r.Threads, r.Batch, r.Shards, r.Pooled, r.TxWindowNS)
}

// label renders the workload cell for tables: the workload name plus the
// batch/shard/pooled dimensions when they are set.
func (r Result) label() string {
	l := r.Workload
	if r.Batch > 0 {
		l += fmt.Sprintf("/k=%d", r.Batch)
	}
	if r.Shards > 0 {
		l += fmt.Sprintf("/s=%d", r.Shards)
	}
	if r.Pooled {
		l += "/pooled"
	}
	if r.TxWindowNS > 0 {
		l += fmt.Sprintf("/w=%dns", r.TxWindowNS)
	}
	return l
}

// File is one benchmark invocation's record.
type File struct {
	Schema    string   `json:"schema"`
	CreatedAt string   `json:"created_at,omitempty"` // RFC 3339, filled by the writer's caller
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Results   []Result `json:"results"`
}

// New returns a File stamped with the current environment.
func New() *File {
	return &File{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Write serializes f as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read parses a benchjson file, rejecting other schemas.
func Read(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("benchjson: schema %q is not %q", f.Schema, Schema)
	}
	return &f, nil
}

// Delta is one compared cell.
type Delta struct {
	Result             // the new measurement
	OldNSPerOp float64 // baseline ns/op
	Ratio      float64 // new/old; >1 is slower
	Regressed  bool    // Ratio exceeds 1+threshold
}

// Report is the outcome of comparing a new file against a baseline.
type Report struct {
	Threshold float64
	Deltas    []Delta  // cells present in both files, baseline order preserved where possible
	OnlyOld   []Result // baseline cells the new run did not measure
	OnlyNew   []Result // new cells with no baseline
	EnvDiffer bool     // environment fields differ between the files
}

// Regressions returns the deltas flagged as regressed.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Diff compares a new run against a baseline. threshold <= 0 selects
// DefaultThreshold. The comparison is report-only by design: wall-clock
// numbers regress for many reasons besides the code under test, so the
// caller decides what (if anything) fails.
func Diff(old, new *File, threshold float64) *Report {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	rep := &Report{Threshold: threshold}
	rep.EnvDiffer = old.GoVersion != new.GoVersion || old.GOOS != new.GOOS ||
		old.GOARCH != new.GOARCH || old.NumCPU != new.NumCPU

	oldByKey := map[string]Result{}
	for _, r := range old.Results {
		oldByKey[r.key()] = r
	}
	newSeen := map[string]bool{}
	for _, r := range new.Results {
		newSeen[r.key()] = true
		o, ok := oldByKey[r.key()]
		if !ok {
			rep.OnlyNew = append(rep.OnlyNew, r)
			continue
		}
		d := Delta{Result: r, OldNSPerOp: o.NSPerOp}
		if o.NSPerOp > 0 {
			d.Ratio = r.NSPerOp / o.NSPerOp
			d.Regressed = d.Ratio > 1+threshold
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for _, r := range old.Results {
		if !newSeen[r.key()] {
			rep.OnlyOld = append(rep.OnlyOld, r)
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].key() < rep.Deltas[j].key() })
	return rep
}

// Format renders the report as an aligned, human-readable table with a
// one-line verdict, suitable for CI logs.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %8s %12s %12s %8s\n", "impl", "workload", "threads", "old ns/op", "new ns/op", "ratio")
	for _, d := range r.Deltas {
		mark := ""
		if d.Regressed {
			mark = "  << REGRESSION"
		} else if d.Ratio > 0 && d.Ratio < 1-r.Threshold {
			mark = "  (improved)"
		}
		fmt.Fprintf(&b, "%-14s %-14s %8d %12.1f %12.1f %7.2fx%s\n",
			d.Impl, d.label(), d.Threads, d.OldNSPerOp, d.NSPerOp, d.Ratio, mark)
	}
	for _, o := range r.OnlyOld {
		fmt.Fprintf(&b, "%-14s %-14s %8d   baseline only (not measured in new run)\n", o.Impl, o.label(), o.Threads)
	}
	for _, n := range r.OnlyNew {
		fmt.Fprintf(&b, "%-14s %-14s %8d   new cell (no baseline)\n", n.Impl, n.label(), n.Threads)
	}
	if r.EnvDiffer {
		b.WriteString("note: environments differ between baseline and new run; ratios are indicative only\n")
	}
	if n := len(r.Regressions()); n > 0 {
		fmt.Fprintf(&b, "%d regression(s) beyond %.0f%% (report-only)\n", n, 100*r.Threshold)
	} else {
		fmt.Fprintf(&b, "no regressions beyond %.0f%%\n", 100*r.Threshold)
	}
	return b.String()
}
