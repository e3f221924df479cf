package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
)

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram in a Snapshot.
type HistogramValue struct {
	Name   string    `json:"name"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// SpanValue is one completed span in a Snapshot.
type SpanValue struct {
	Name     string  `json:"name"`
	StartSec float64 `json:"start_sec"` // relative to the registry epoch
	DurSec   float64 `json:"dur_sec"`
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	Spans      []SpanValue      `json:"spans,omitempty"`
}

// Snapshot captures every metric and span, sorted by name (spans by start
// time).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		bounds, counts := h.Buckets()
		s.Histograms = append(s.Histograms, HistogramValue{
			Name: h.name, Count: h.Count(), Sum: h.Sum(), Bounds: bounds, Counts: counts,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	for _, ev := range r.Spans() {
		s.Spans = append(s.Spans, SpanValue{
			Name:     ev.Name,
			StartSec: ev.Start.Sub(r.epoch).Seconds(),
			DurSec:   ev.Dur.Seconds(),
		})
	}
	sort.Slice(s.Spans, func(i, j int) bool {
		if s.Spans[i].StartSec != s.Spans[j].StartSec {
			return s.Spans[i].StartSec < s.Spans[j].StartSec
		}
		return s.Spans[i].Name < s.Spans[j].Name
	})
	return s
}

// WriteText dumps the registry as aligned name/value lines, one metric
// per line, sorted by name. Zero-valued counters are skipped: the
// interesting dump is what actually happened.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	width := 0
	for _, c := range s.Counters {
		if c.Value != 0 && len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if h.Count > 0 && len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		if c.Value == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "counter  %-*s %d\n", width, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge    %-*s %g\n", width, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "hist     %-*s count=%d sum=%.3f mean=%.3f\n",
			width, h.Name, h.Count, h.Sum, h.Sum/float64(h.Count)); err != nil {
			return err
		}
	}
	for _, sp := range s.Spans {
		if _, err := fmt.Fprintf(w, "span     %-*s start=%.3fs dur=%.3fs\n",
			width, sp.Name, sp.StartSec, sp.DurSec); err != nil {
			return err
		}
	}
	return nil
}

// expvarOnce guards the process-global expvar names (Publish panics on
// duplicates).
var expvarOnce sync.Once

// PublishExpvar exposes live registry snapshots at /debug/vars under two
// keys: "telemetry" (the nested label → Snapshot map) and
// "telemetry_metrics" (a flat map keyed by canonical identifiers — see
// FlattenSnapshots — so metric names containing '/', '.' or an embedded
// label block land on unambiguous, collision-free keys). The provider is
// invoked on every scrape, so registries attached after publication are
// still reported. Idempotent: only the first call's provider is
// published.
func PublishExpvar(provider func() map[string]Snapshot) {
	expvarOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any { return provider() }))
		expvar.Publish("telemetry_metrics", expvar.Func(func() any {
			return FlattenSnapshots(provider())
		}))
	})
}

// FlattenSnapshots renders labeled snapshots as one flat map keyed by
// canonical identifiers: "<label>/<metric name>" run through
// CanonicalKeys, so "camp/a.b" and "camp/a/b" (which canonicalize to
// the same identifier) get deterministically distinct keys instead of
// one silently overwriting the other. Histograms flatten to their count,
// sum, and mean under _count/_sum/_mean suffix keys.
func FlattenSnapshots(m map[string]Snapshot) map[string]any {
	var names []string
	vals := make(map[string]any)
	put := func(full string, v any) {
		names = append(names, full)
		vals[full] = v
	}
	for label, snap := range m {
		for _, c := range snap.Counters {
			put(label+"/"+c.Name, c.Value)
		}
		for _, g := range snap.Gauges {
			put(label+"/"+g.Name, g.Value)
		}
		for _, h := range snap.Histograms {
			put(label+"/"+h.Name+"_count", h.Count)
			put(label+"/"+h.Name+"_sum", h.Sum)
			if h.Count > 0 {
				put(label+"/"+h.Name+"_mean", h.Sum/float64(h.Count))
			}
		}
	}
	keys := CanonicalKeys(names)
	out := make(map[string]any, len(vals))
	for full, v := range vals {
		out[keys[full]] = v
	}
	return out
}

// writeJSONIndent writes v as indented JSON.
func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}
