package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// promMetric is one registered metric on its way to exposition.
type promMetric struct {
	name   string // registry name, labels included
	base   string
	labels []Label
	family string // exported name: sanitized base, counters suffixed _total
	typ    string // counter, gauge, histogram
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// WritePrometheus renders every metric of the registry in the Prometheus
// text exposition format (version 0.0.4). It is the one way a registry is
// read: GET /metrics and the -metrics dump both call it.
//
// Each metric has one exported name. The base of its registry name with
// every character outside the Prometheus charset mapped to '_' (and a
// leading digit prefixed with '_') is the family; counters get a _total
// suffix. Embedded labels (see Name) become real labels. Families come out
// in name order, one # TYPE line each; histograms render cumulative
// le-buckets, a +Inf bucket, _sum and _count. Two bases that render to one
// family, or one base registered as two kinds, are an error, returned
// before anything is written.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]promMetric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		ms = append(ms, promMetric{name: name, typ: "counter", c: c})
	}
	for name, g := range r.gauges {
		ms = append(ms, promMetric{name: name, typ: "gauge", g: g})
	}
	for name, h := range r.hists {
		ms = append(ms, promMetric{name: name, typ: "histogram", h: h})
	}
	r.mu.Unlock()

	for i := range ms {
		m := &ms[i]
		m.base, m.labels = ParseName(m.name)
		m.family = sanitizeName(m.base, true)
		if m.typ == "counter" && !strings.HasSuffix(m.family, "_total") {
			m.family += "_total"
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].name < ms[j].name
	})

	var b []byte
	for i, m := range ms {
		if i == 0 || ms[i-1].family != m.family {
			b = fmt.Appendf(b, "# TYPE %s %s\n", m.family, m.typ)
		} else if prev := ms[i-1]; prev.base != m.base || prev.typ != m.typ {
			return fmt.Errorf("telemetry: %s %q and %s %q both render as %s",
				prev.typ, prev.name, m.typ, m.name, m.family)
		}
		switch m.typ {
		case "counter":
			b = appendSample(b, m.family, m.labels, "", "", strconv.FormatInt(m.c.Value(), 10))
		case "gauge":
			b = appendSample(b, m.family, m.labels, "", "", formatFloat(m.g.Value()))
		case "histogram":
			// Buckets are stored per bin and exposed cumulatively. _count is
			// the +Inf bucket by construction, so le-monotonicity and
			// count == +Inf hold even when observers race the read.
			bounds, counts := m.h.Buckets()
			var cum int64
			for k, bound := range bounds {
				cum += counts[k]
				b = appendSample(b, m.family+"_bucket", m.labels, "le", formatFloat(bound), strconv.FormatInt(cum, 10))
			}
			cum += counts[len(counts)-1]
			b = appendSample(b, m.family+"_bucket", m.labels, "le", "+Inf", strconv.FormatInt(cum, 10))
			b = appendSample(b, m.family+"_sum", m.labels, "", "", formatFloat(m.h.Sum()))
			b = appendSample(b, m.family+"_count", m.labels, "", "", strconv.FormatInt(cum, 10))
		}
	}
	_, err := w.Write(b)
	return err
}

// appendSample appends one sample line. The optional extra label (a
// histogram's le) goes last; label names are sanitized, values escaped.
func appendSample(b []byte, name string, labels []Label, extraKey, extraVal, value string) []byte {
	b = append(b, name...)
	if len(labels) > 0 || extraKey != "" {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendLabel(b, l.Key, l.Value)
		}
		if extraKey != "" {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = appendLabel(b, extraKey, extraVal)
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = append(b, value...)
	return append(b, '\n')
}

// appendLabel appends key="value", escaping backslash, double quote and
// newline in the value as the text format requires.
func appendLabel(b []byte, key, val string) []byte {
	b = append(b, sanitizeName(key, false)...)
	b = append(b, '=', '"')
	for i := 0; i < len(val); i++ {
		switch val[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, val[i])
		}
	}
	return append(b, '"')
}

// formatFloat renders a float the way Prometheus expects: the shortest
// round-trip form, with +Inf, -Inf and NaN spelled out.
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

// sanitizeName maps s onto the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]* (colon only when metric is set; label names
// may not carry one): every other character becomes '_', and a leading
// digit gets a '_' prefix.
func sanitizeName(s string, metric bool) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		case r == '_' || (r == ':' && metric) || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
