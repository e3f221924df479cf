// Metric naming: the registry's flat string keys carry an optional
// embedded label set, which WritePrometheus splits off with ParseName and
// renders as real labels.
//
// The convention: a metric name is `base` or `base{k=v,k2=v2}`. The base
// is dot/slash-namespaced free text ("geoserve.status"); labels are
// comma-separated key=value pairs with raw (unquoted, unescaped) values.
// Values may not contain '{', '}', ',' or '='; producers that need those
// characters must sanitize first. The registry itself treats the whole
// string as an opaque key — two names differing only in label order are
// two metrics — so producers must format labels in one fixed order.
package telemetry

import "strings"

// Label is one key=value pair embedded in a metric name.
type Label struct {
	Key   string
	Value string
}

// Name formats a metric name with embedded labels in the order given.
// Callers must pass labels in a fixed order (the registry keys on the
// formatted string).
func Name(base string, labels ...Label) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// ParseName splits a registry metric name into its base and embedded
// labels. Names without a label block come back with nil labels. A
// malformed label block (no closing brace, empty key, missing '=') is
// not an error — the whole string is returned as the base, so a weird
// name degrades to an oddly-named metric instead of a dropped one.
func ParseName(name string) (base string, labels []Label) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	body := name[open+1 : len(name)-1]
	if body == "" {
		return name[:open], nil
	}
	parts := strings.Split(body, ",")
	labels = make([]Label, 0, len(parts))
	for _, p := range parts {
		eq := strings.IndexByte(p, '=')
		if eq <= 0 {
			return name, nil // malformed: treat verbatim
		}
		labels = append(labels, Label{Key: p[:eq], Value: p[eq+1:]})
	}
	return name[:open], labels
}
