// Package obs is the observability plane over internal/telemetry: it
// turns the write-only metric registries into things an operator (or a
// test harness) can actually consume — Prometheus text exposition with a
// strict parser/linter, request-scoped identity for tracing and access
// logs, the per-status response ledger both serving tiers count in, and
// a multi-window SLO burn-rate engine that serving layers can feed back
// into admission control (DESIGN.md §3.7).
//
// The package depends only on telemetry and the standard library; the
// serving tiers (internal/serve, internal/router) wire it to HTTP, and
// cmd/geobench uses the parser to enforce the client-ledger ↔
// server-counter accounting invariant.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"geoloc/internal/telemetry"
)

// ContentType is the HTTP Content-Type for the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// LabeledRegistry names one registry for exposition. A non-empty label
// is attached to every sample as registry="<label>", so the same metric
// name in two registries stays distinguishable (duplicate samples are
// invalid exposition).
type LabeledRegistry struct {
	Label string
	Reg   *telemetry.Registry
}

// promSample is one rendered sample line (name already final, labels
// already escaped and joined).
type promSample struct {
	name   string // full sample name (family name, or family_bucket/_sum/_count)
	labels string // rendered {..} block, "" for none
	value  string
}

// promFamily is one metric family: a TYPE line plus its samples.
type promFamily struct {
	name    string
	typ     string // counter, gauge, histogram
	samples []promSample
}

// WritePrometheus renders every metric of the given registries in the
// Prometheus text exposition format (version 0.0.4): one # TYPE line per
// family, counters with a _total suffix, histograms with cumulative
// le-buckets, a +Inf bucket, _sum and _count. Metric and label names are
// sanitized to the Prometheus charset; label values are escaped. Two
// distinct telemetry names that sanitize to the same family name are
// disambiguated with a deterministic hash suffix rather than silently
// merged.
func WritePrometheus(w io.Writer, regs ...LabeledRegistry) error {
	type rawMetric struct {
		base   string
		labels []telemetry.Label
		typ    string
		c      telemetry.CounterValue
		g      telemetry.GaugeValue
		h      telemetry.HistogramValue
	}
	var raws []rawMetric
	for _, lr := range regs {
		if lr.Reg == nil {
			continue
		}
		snap := lr.Reg.Snapshot()
		add := func(name, typ string) *rawMetric {
			base, labels := telemetry.ParseName(name)
			if lr.Label != "" {
				labels = append(labels, telemetry.Label{Key: "registry", Value: lr.Label})
			}
			raws = append(raws, rawMetric{base: base, labels: labels, typ: typ})
			return &raws[len(raws)-1]
		}
		for _, c := range snap.Counters {
			add(c.Name, "counter").c = c
		}
		for _, g := range snap.Gauges {
			add(g.Name, "gauge").g = g
		}
		for _, h := range snap.Histograms {
			add(h.Name, "histogram").h = h
		}
	}

	// Resolve family names: sanitize, suffix counters with _total, then
	// disambiguate sanitization collisions (families that share a final
	// name but came from different telemetry base names or kinds).
	type famKey struct{ name, typ, origin string }
	families := make(map[string]*promFamily)
	order := []string{}
	claim := make(map[string]famKey) // final name -> first claimant
	for i := range raws {
		m := &raws[i]
		name := SanitizeMetricName(m.base)
		if m.typ == "counter" && !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		key := famKey{name: name, typ: m.typ, origin: m.base}
		if prev, ok := claim[name]; ok && prev != key {
			// Same rendered name, different origin or kind: keep both by
			// hashing the original spelling into the later name.
			name = fmt.Sprintf("%s_%08x", name, hashString(m.typ+"\x00"+m.base))
			key = famKey{name: name, typ: m.typ, origin: m.base}
		}
		if _, ok := claim[name]; !ok {
			claim[name] = key
		}
		fam := families[name]
		if fam == nil {
			fam = &promFamily{name: name, typ: m.typ}
			families[name] = fam
			order = append(order, name)
		}
		appendSamples(fam, name, m.typ, m.labels, m.c, m.g, m.h)
	}

	sort.Strings(order)
	for _, name := range order {
		fam := families[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ); err != nil {
			return err
		}
		for _, s := range fam.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendSamples renders one telemetry metric into its family's samples.
// name is the final (sanitized, disambiguated) family name.
func appendSamples(fam *promFamily, name, typ string, labels []telemetry.Label,
	c telemetry.CounterValue, g telemetry.GaugeValue, h telemetry.HistogramValue) {
	plain := renderLabels(labels, "", "")
	switch typ {
	case "counter":
		fam.samples = append(fam.samples, promSample{
			name: name, labels: plain, value: strconv.FormatInt(c.Value, 10),
		})
	case "gauge":
		fam.samples = append(fam.samples, promSample{
			name: name, labels: plain, value: formatFloat(g.Value),
		})
	case "histogram":
		// Buckets are stored per-bin; exposition is cumulative, and the
		// rendered _count is the +Inf bucket by construction, so the
		// le-monotonicity and count==+Inf invariants hold even when
		// concurrent observers race the snapshot.
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fam.samples = append(fam.samples, promSample{
				name:   name + "_bucket",
				labels: renderLabels(labels, "le", formatFloat(bound)),
				value:  strconv.FormatInt(cum, 10),
			})
		}
		if len(h.Counts) > 0 {
			cum += h.Counts[len(h.Counts)-1]
		}
		fam.samples = append(fam.samples, promSample{
			name:   name + "_bucket",
			labels: renderLabels(labels, "le", "+Inf"),
			value:  strconv.FormatInt(cum, 10),
		})
		fam.samples = append(fam.samples, promSample{
			name: name + "_sum", labels: plain, value: formatFloat(h.Sum),
		})
		fam.samples = append(fam.samples, promSample{
			name: name + "_count", labels: plain, value: strconv.FormatInt(cum, 10),
		})
	}
}

// renderLabels renders a label block, appending an optional extra pair
// (the histogram le label) last. Label names are sanitized, values
// escaped. Returns "" for an empty set.
func renderLabels(labels []telemetry.Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	emit := func(k, v string) {
		if n > 0 {
			b.WriteByte(',')
		}
		n++
		b.WriteString(SanitizeLabelName(k))
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(v))
		b.WriteByte('"')
	}
	for _, l := range labels {
		emit(l.Key, l.Value)
	}
	if extraKey != "" {
		emit(extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip form; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SanitizeMetricName maps a telemetry base name onto the Prometheus
// metric-name charset [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid character
// becomes '_', and a leading digit gets a '_' prefix.
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// SanitizeLabelName maps a label key onto [a-zA-Z_][a-zA-Z0-9_]* the
// same way (colons are not valid in label names).
func SanitizeLabelName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// EscapeLabelValue escapes a label value per the text format: backslash,
// double quote, and newline.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// hashString is FNV-1a over s.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
