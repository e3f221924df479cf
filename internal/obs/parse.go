// Package obs is the observability plane over internal/telemetry: it
// turns the write-only metric registries into things an operator (or a
// test harness) can consume — a strict parser/linter for the Prometheus
// text the registries render, request-scoped identity for tracing and
// access logs, and the per-status response ledger both serving tiers
// count in (DESIGN.md §3.7). Error budgets are not computed here: they
// are PromQL over the ledger and the latency histogram, evaluated where
// /metrics is scraped (README, Monitoring).
//
// The parser below is the promtool-check-metrics half of the plane. It
// is used three ways: the exposition lint tests run it over
// Registry.WritePrometheus output (the writer and the linter keep each
// other honest), geobench runs it over live /metrics scrapes to enforce
// the accounting invariant, and any malformed document is a hard error
// rather than a warning, because a scraper that silently drops samples
// is how accounting bugs hide.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	// Name is the sample name as spelled (histogram samples keep their
	// _bucket/_sum/_count suffixes).
	Name string
	// Labels holds the decoded label pairs (escape sequences resolved).
	Labels map[string]string
	// Value is the parsed sample value.
	Value float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// Scrape is one parsed exposition document.
type Scrape struct {
	// Samples holds every sample line in document order.
	Samples []Sample
	// Types maps family name to its declared TYPE.
	Types map[string]string
}

// Find returns every sample with the given name whose labels are a
// superset of want.
func (sc *Scrape) Find(name string, want map[string]string) []Sample {
	var out []Sample
	for _, s := range sc.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the value of the unique sample with the given name and
// exact label constraints, or an error when missing.
func (sc *Scrape) Value(name string, want map[string]string) (float64, error) {
	got := sc.Find(name, want)
	if len(got) == 0 {
		return 0, fmt.Errorf("no sample %s%v", name, want)
	}
	if len(got) > 1 {
		return 0, fmt.Errorf("%d samples match %s%v, want 1", len(got), name, want)
	}
	return got[0].Value, nil
}

// ParseExposition parses and lints a text-format exposition document.
// Beyond syntax, it enforces the invariants a Prometheus server relies
// on: valid metric and label names, properly quoted and escaped label
// values, parseable sample values, no duplicate samples, TYPE declared
// at most once per family and before that family's samples, and for
// every declared histogram: cumulative le-buckets that are monotonically
// non-decreasing, a closing +Inf bucket, and _count equal to the +Inf
// bucket, per label set.
func ParseExposition(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string)}
	seen := make(map[string]bool)    // duplicate-sample detection
	sampled := make(map[string]bool) // sample names so far, for TYPE order
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(sc, sampled, line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		s, err := parseSampleLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		key := sampleKey(s)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		sampled[s.Name] = true
		sc.Samples = append(sc.Samples, s)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	// A TYPE line for a family that never got a sample is legal (an
	// empty family); a sample arriving before its TYPE is rejected in
	// parseComment, so document order is already enforced here.
	if err := lintHistograms(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseComment handles # lines: TYPE and HELP are validated, anything
// else is a free comment. sampled holds the sample names seen so far.
func parseComment(sc *Scrape, sampled map[string]bool, line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare "#" comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("line %d: TYPE for invalid metric name %q", lineNo, name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
		}
		if _, dup := sc.Types[name]; dup {
			return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
		}
		if sampled[name] || (typ == "histogram" &&
			(sampled[name+"_bucket"] || sampled[name+"_sum"] || sampled[name+"_count"])) {
			return fmt.Errorf("line %d: TYPE for %s appears after its samples", lineNo, name)
		}
		sc.Types[name] = typ
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("line %d: malformed HELP line %q", lineNo, line)
		}
	}
	return nil
}

// parseSampleLine parses `name[{labels}] value [timestamp]`.
func parseSampleLine(line string, lineNo int) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("line %d: sample %q has no value", lineNo, line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("line %d: invalid metric name %q", lineNo, s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		var err error
		rest, err = parseLabels(rest[1:], s.Labels, lineNo)
		if err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("line %d: expected `value [timestamp]` after %q, got %q", lineNo, s.Name, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("line %d: bad timestamp %q", lineNo, fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes a label block body (after '{') and returns the
// remainder after the closing '}'.
func parseLabels(rest string, out map[string]string, lineNo int) (string, error) {
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return "", fmt.Errorf("line %d: unterminated label block", lineNo)
		}
		if rest[0] == '}' {
			return rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", fmt.Errorf("line %d: label pair missing '='", lineNo)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validLabelName(name) {
			return "", fmt.Errorf("line %d: invalid label name %q", lineNo, name)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if rest == "" || rest[0] != '"' {
			return "", fmt.Errorf("line %d: label %s value is not quoted", lineNo, name)
		}
		val, remainder, err := unquoteLabelValue(rest[1:])
		if err != nil {
			return "", fmt.Errorf("line %d: label %s: %v", lineNo, name, err)
		}
		if _, dup := out[name]; dup {
			return "", fmt.Errorf("line %d: duplicate label %s", lineNo, name)
		}
		out[name] = val
		rest = strings.TrimLeft(remainder, " \t")
		if rest == "" {
			return "", fmt.Errorf("line %d: unterminated label block", lineNo)
		}
		switch rest[0] {
		case ',':
			rest = rest[1:]
		case '}':
			return rest[1:], nil
		default:
			return "", fmt.Errorf("line %d: expected ',' or '}' after label %s", lineNo, name)
		}
	}
}

// unquoteLabelValue decodes an escaped label value up to the closing
// quote, returning the remainder after it.
func unquoteLabelValue(rest string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			i++
			if i >= len(rest) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", rest[i])
			}
		case '\n':
			return "", "", fmt.Errorf("unescaped newline in label value")
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// parseValue parses a sample value (Prometheus float syntax).
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// lintHistograms checks every declared histogram family: per label set
// (le excluded), buckets must be monotonically non-decreasing in le
// order, end with +Inf, and agree with _count.
func lintHistograms(sc *Scrape) error {
	type series struct {
		les    []float64
		counts []float64
	}
	for fam, typ := range sc.Types {
		if typ != "histogram" {
			continue
		}
		buckets := make(map[string]*series)
		counts := make(map[string]float64)
		hasCount := make(map[string]bool)
		hasSum := make(map[string]bool)
		for _, s := range sc.Samples {
			switch s.Name {
			case fam + "_bucket":
				le, ok := s.Labels["le"]
				if !ok {
					return fmt.Errorf("histogram %s: bucket sample without le label", fam)
				}
				lev, err := parseValue(le)
				if err != nil {
					return fmt.Errorf("histogram %s: bad le %q", fam, le)
				}
				key := labelKeyExcluding(s.Labels, "le")
				sr := buckets[key]
				if sr == nil {
					sr = &series{}
					buckets[key] = sr
				}
				sr.les = append(sr.les, lev)
				sr.counts = append(sr.counts, s.Value)
			case fam + "_count":
				key := labelKeyExcluding(s.Labels, "")
				counts[key] = s.Value
				hasCount[key] = true
			case fam + "_sum":
				hasSum[labelKeyExcluding(s.Labels, "")] = true
			}
		}
		for key, sr := range buckets {
			idx := make([]int, len(sr.les))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return sr.les[idx[a]] < sr.les[idx[b]] })
			prev := math.Inf(-1)
			prevCount := -1.0
			for _, i := range idx {
				if sr.les[i] == prev {
					return fmt.Errorf("histogram %s{%s}: duplicate le bucket %g", fam, key, prev)
				}
				prev = sr.les[i]
				if sr.counts[i] < prevCount {
					return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative at le=%g (%g < %g)",
						fam, key, sr.les[i], sr.counts[i], prevCount)
				}
				prevCount = sr.counts[i]
			}
			last := idx[len(idx)-1]
			if !math.IsInf(sr.les[last], 1) {
				return fmt.Errorf("histogram %s{%s}: missing +Inf bucket", fam, key)
			}
			if !hasCount[key] {
				return fmt.Errorf("histogram %s{%s}: missing _count", fam, key)
			}
			if !hasSum[key] {
				return fmt.Errorf("histogram %s{%s}: missing _sum", fam, key)
			}
			if counts[key] != sr.counts[last] {
				return fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g",
					fam, key, counts[key], sr.counts[last])
			}
		}
	}
	return nil
}

// labelKeyExcluding renders a label set as a canonical sorted key,
// leaving out one label name.
func labelKeyExcluding(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// sampleKey identifies a sample for duplicate detection.
func sampleKey(s Sample) string {
	return s.Name + "{" + labelKeyExcluding(s.Labels, "") + "}"
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
