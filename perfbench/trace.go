package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// span is one timed call across a layer boundary. Spans of one unit of
// work share unit; id is unique within the unit and parent names the span
// that caused this one (0 for the unit's root). Times are nanoseconds on
// the benchmark's monotonic clock.
type span struct {
	name       string
	unit       uint64
	id, parent uint32
	tid        int32
	start, end int64
}

// Span ids within one unit. The root is the unit itself (spanUnit); each
// client call is its child, numbered from spanUnit+1 in call order; a
// server-side handler span hangs under the call that sent it, at
// handlerID(call).
const spanUnit uint32 = 1

func handlerID(call uint32) uint32 { return 64 + call }

// selfTime is p's duration minus the part of it covered by the union of
// its children's intervals (each clipped to p). Overlapping children are
// counted once.
func selfTime(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return (p.end - p.start) - covered
}

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	switch {
	case name == "http.handler":
		return "http_handler"
	case strings.HasPrefix(name, "http."):
		return "http_client"
	case strings.HasPrefix(name, "service."):
		return "service"
	case strings.HasPrefix(name, "queue."):
		return "queue"
	default:
		return "bench"
	}
}

// selfShares returns each layer's summed self time as a share of the
// summed duration of the root (unit) spans, and the number of units seen.
func selfShares(spans []span) (map[string]float64, int) {
	type key struct {
		unit uint64
		id   uint32
	}
	kids := map[key][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			k := key{s.unit, s.parent}
			kids[k] = append(kids[k], s)
		}
	}
	self := map[string]float64{}
	var rootTotal float64
	units := 0
	for _, s := range spans {
		if s.parent == 0 {
			rootTotal += float64(s.end - s.start)
			units++
		}
		self[layerOf(s.name)] += float64(selfTime(s, kids[key{s.unit, s.id}]))
	}
	for l, v := range self {
		self[l] = ratio(v, rootTotal)
	}
	return self, units
}

// writeChromeTrace writes spans in the Chrome trace-event format (complete
// "X" events, microsecond times), which chrome://tracing and Perfetto
// open. Spans of one client share a thread row, so children nest under
// the unit that caused them.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		err = enc.Encode(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"unit": s.unit, "id": s.id, "parent": s.parent},
		})
		if err != nil {
			f.Close()
			return fmt.Errorf("encoding span: %w", err)
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}
