package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SpanEvent is one completed span: a named phase with wall-clock start
// and duration. Spans record real time for reporting only; nothing in
// the pipeline reads them back, so they cannot perturb results.
type SpanEvent struct {
	Name  string
	Start time.Time
	Dur   time.Duration
}

// Span is an in-flight phase measurement. A nil *Span (returned by
// StartSpan on a nil registry) is valid and free: End on it is a
// no-op, so call sites need no enablement checks.
type Span struct {
	r     *Registry
	name  string
	start time.Time
}

// StartSpan begins a span on the registry. On a nil registry it returns
// nil without reading the clock.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, start: time.Now()}
}

// End completes the span and records it. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: s.name, Start: s.start, Dur: time.Since(s.start)}
	s.r.spanMu.Lock()
	s.r.spans = append(s.r.spans, ev)
	s.r.spanMu.Unlock()
}

// Spans returns a copy of the recorded span events; none on the nil
// registry.
func (r *Registry) Spans() []SpanEvent {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return append([]SpanEvent(nil), r.spans...)
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event; timestamps and durations in microseconds).
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace merges the spans of the given registries and writes
// them in Chrome trace-event JSON (load via chrome://tracing or Perfetto).
// Overlapping spans are spread over lanes (tids) greedily so concurrent
// phases render side by side instead of on top of each other.
func WriteChromeTrace(w io.Writer, regs ...*Registry) error {
	var all []SpanEvent
	for _, r := range regs {
		if r != nil {
			all = append(all, r.Spans()...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].Start.Equal(all[j].Start) {
			return all[i].Start.Before(all[j].Start)
		}
		return all[i].Name < all[j].Name
	})

	var epoch time.Time
	if len(all) > 0 {
		epoch = all[0].Start
	}
	var laneEnd []time.Time // per-lane latest end time
	events := make([]chromeEvent, 0, len(all))
	for _, ev := range all {
		tid := -1
		for lane, end := range laneEnd {
			if !ev.Start.Before(end) {
				tid = lane
				break
			}
		}
		if tid < 0 {
			laneEnd = append(laneEnd, time.Time{})
			tid = len(laneEnd) - 1
		}
		laneEnd[tid] = ev.Start.Add(ev.Dur)
		events = append(events, chromeEvent{
			Name: ev.Name,
			Ph:   "X",
			TS:   ev.Start.Sub(epoch).Microseconds(),
			Dur:  ev.Dur.Microseconds(),
			PID:  1,
			TID:  tid + 1,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
