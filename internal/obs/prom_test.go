package obs

import (
	"bytes"
	"strings"
	"testing"

	"geoloc/internal/telemetry"
)

// render writes the registry and immediately re-parses the output with
// the strict linter — every exposition test doubles as a lint test.
func render(t *testing.T, r *telemetry.Registry) (*Scrape, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	sc, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not lint:\n%s\nerror: %v", buf.String(), err)
	}
	return sc, buf.String()
}

func TestWritePrometheusBasics(t *testing.T) {
	r := telemetry.New()
	r.Counter("geoserve.hits").Add(42)
	r.Gauge("geoserve.queue_depth").Set(7.5)
	r.Histogram("geoserve.latency_ms", []float64{1, 5, 25}).Observe(3)

	sc, text := render(t, r)
	if v, err := sc.Value("geoserve_hits_total", nil); err != nil || v != 42 {
		t.Errorf("counter: %v %v\n%s", v, err, text)
	}
	if v, err := sc.Value("geoserve_queue_depth", nil); err != nil || v != 7.5 {
		t.Errorf("gauge: %v %v", v, err)
	}
	if sc.Types["geoserve_hits_total"] != "counter" ||
		sc.Types["geoserve_queue_depth"] != "gauge" ||
		sc.Types["geoserve_latency_ms"] != "histogram" {
		t.Errorf("TYPE lines wrong: %v", sc.Types)
	}
	// One observation of 3ms: le=1 empty, le=5 and le=25 and +Inf all 1.
	for le, want := range map[string]float64{"1": 0, "5": 1, "25": 1, "+Inf": 1} {
		v, err := sc.Value("geoserve_latency_ms_bucket", map[string]string{"le": le})
		if err != nil || v != want {
			t.Errorf("bucket le=%s: got %v (%v), want %v", le, v, err, want)
		}
	}
	if v, _ := sc.Value("geoserve_latency_ms_count", nil); v != 1 {
		t.Errorf("_count = %v, want 1", v)
	}
	if v, _ := sc.Value("geoserve_latency_ms_sum", nil); v != 3 {
		t.Errorf("_sum = %v, want 3", v)
	}
}

// TestWritePrometheusEmptyHistogram: a histogram with zero observations
// must still render a complete, lintable bucket ladder.
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := telemetry.New()
	r.Histogram("empty.hist", []float64{0.5, 1})
	sc, _ := render(t, r)
	if v, err := sc.Value("empty_hist_bucket", map[string]string{"le": "+Inf"}); err != nil || v != 0 {
		t.Errorf("+Inf bucket: %v %v", v, err)
	}
	if v, err := sc.Value("empty_hist_count", nil); err != nil || v != 0 {
		t.Errorf("_count: %v %v", v, err)
	}
	if v, err := sc.Value("empty_hist_sum", nil); err != nil || v != 0 {
		t.Errorf("_sum: %v %v", v, err)
	}
}

// TestWritePrometheusLabeledNames: telemetry's embedded-label convention
// becomes real Prometheus labels, merged under one family.
func TestWritePrometheusLabeledNames(t *testing.T) {
	r := telemetry.New()
	r.Counter("geoserve.status{code=200,plane=data}").Add(10)
	r.Counter("geoserve.status{code=429,plane=data}").Add(3)
	r.Counter("geoserve.status{code=200,plane=control}").Add(2)
	sc, text := render(t, r)
	if got := len(sc.Find("geoserve_status_total", nil)); got != 3 {
		t.Fatalf("family has %d samples, want 3:\n%s", got, text)
	}
	v, err := sc.Value("geoserve_status_total", map[string]string{"code": "429", "plane": "data"})
	if err != nil || v != 3 {
		t.Errorf("labeled sample: %v %v", v, err)
	}
	if strings.Count(text, "# TYPE geoserve_status_total") != 1 {
		t.Errorf("family must declare TYPE exactly once:\n%s", text)
	}
}

// TestWritePrometheusEscaping: hostile metric/label content must
// sanitize into valid exposition, not corrupt it.
func TestWritePrometheusEscaping(t *testing.T) {
	r := telemetry.New()
	r.Counter(`weird metric-name.with/slashes`).Add(1)
	r.Counter(`labeled{path=/lookup,msg=say "hi"\now}`).Add(5)
	r.Gauge(`0leading.digit`).Set(1)
	sc, text := render(t, r)
	if _, err := sc.Value("weird_metric_name_with_slashes_total", nil); err != nil {
		t.Errorf("sanitized counter missing: %v\n%s", err, text)
	}
	v, err := sc.Value("labeled_total", map[string]string{
		"path": "/lookup", "msg": `say "hi"\now`})
	if err != nil || v != 5 {
		t.Errorf("escaped label round-trip: %v %v\n%s", v, err, text)
	}
	if _, err := sc.Value("_0leading_digit", nil); err != nil {
		t.Errorf("leading digit not sanitized: %v\n%s", err, text)
	}
}

// TestWritePrometheusNameCollision: every metric renders under one name,
// so two telemetry names that sanitize to the same family are an error,
// reported before a byte is written, never a silent merge or a renamed
// twin.
func TestWritePrometheusNameCollision(t *testing.T) {
	for _, names := range [][2]string{{"a.b", "a/b"}, {"a.b", "a.b_total"}} {
		r := telemetry.New()
		r.Counter(names[0]).Add(1)
		r.Counter(names[1]).Add(2)
		var buf bytes.Buffer
		err := r.WritePrometheus(&buf)
		if err == nil || !strings.Contains(err.Error(), names[0]) || !strings.Contains(err.Error(), names[1]) {
			t.Errorf("%q + %q: err = %v, want a collision naming both", names[0], names[1], err)
		}
		if buf.Len() != 0 {
			t.Errorf("%q + %q: wrote %d bytes before failing", names[0], names[1], buf.Len())
		}
	}
	r := telemetry.New()
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	if err := r.WritePrometheus(new(bytes.Buffer)); err != nil {
		t.Errorf("counter x and gauge x render as x_total and x, got %v", err)
	}
	r.Gauge("x_total").Set(1)
	if err := r.WritePrometheus(new(bytes.Buffer)); err == nil {
		t.Error("counter x and gauge x_total share a family; want an error")
	}
}

// TestWritePrometheusCumulativeMonotonic: buckets render cumulatively
// and _count equals the +Inf bucket, across a spread of observations.
func TestWritePrometheusCumulativeMonotonic(t *testing.T) {
	r := telemetry.New()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	sc, _ := render(t, r)
	prev := -1.0
	for _, le := range []string{"1", "2", "4", "8", "+Inf"} {
		v, err := sc.Value("lat_bucket", map[string]string{"le": le})
		if err != nil {
			t.Fatalf("bucket le=%s: %v", le, err)
		}
		if v < prev {
			t.Fatalf("bucket le=%s not cumulative: %v < %v", le, v, prev)
		}
		prev = v
	}
	if count, _ := sc.Value("lat_count", nil); count != prev || count != 100 {
		t.Errorf("_count %v != +Inf bucket %v (want 100)", count, prev)
	}
}

// TestParseExpositionRejects is the promtool-check-metrics half: each
// malformed document must fail with a clear error.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":     "1bad_name 3\n",
		"missing value":       "metric_name\n",
		"bad value":           "metric_name abc\n",
		"bad label name":      `m{1bad="x"} 1` + "\n",
		"unquoted label":      `m{l=x} 1` + "\n",
		"unterminated labels": `m{l="x" 1` + "\n",
		"bad escape":          `m{l="\q"} 1` + "\n",
		"duplicate sample":    "m{a=\"1\"} 1\nm{a=\"1\"} 2\n",
		"duplicate label":     `m{a="1",a="2"} 1` + "\n",
		"duplicate TYPE":      "# TYPE m counter\n# TYPE m gauge\n",
		"unknown TYPE":        "# TYPE m sometype\n",
		"TYPE after samples":  "m 1\n# TYPE m counter\n",
		"non-cumulative hist": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count != +Inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"hist missing sum":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"bad timestamp":       "m 1 12.5\n",
	}
	for name, doc := range cases {
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: document accepted, want error:\n%s", name, doc)
		}
	}
}

func TestParseExpositionAccepts(t *testing.T) {
	doc := `# A free comment
# HELP m something helpful
# TYPE m counter
m{path="/x",msg="say \"hi\"\n"} 12 1700000000
other_metric 3.5
# TYPE h histogram
h_bucket{le="0.5"} 1
h_bucket{le="+Inf"} 2
h_sum 1.25
h_count 2
`
	sc, err := ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	v, err := sc.Value("m", map[string]string{"path": "/x"})
	if err != nil || v != 12 {
		t.Errorf("sample m: %v %v", v, err)
	}
	got := sc.Find("m", nil)[0].Labels["msg"]
	if got != "say \"hi\"\n" {
		t.Errorf("escape decoding: %q", got)
	}
}

// FuzzParseExposition feeds the parser arbitrary documents, which it must
// accept or refuse with an error and never panic on, and feeds the writer
// every metric a producer may legally name (a free-text base, label values
// free of the '{', '}', ',' and '=' that telemetry.Name reserves): the
// writer must render it into a document the parser accepts, with the
// counter's labels and value intact.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("# TYPE m counter\nm{a=\"1\"} 2\n"), "geoserve.status", "200", "data", uint8(3))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"), "0lead weird/name", `say "hi"\`, "a\nb", uint8(0))
	f.Add([]byte("m{l=\"x\" 1\n"), "x_total", "", " ", uint8(255))
	f.Fuzz(func(t *testing.T, doc []byte, base, code, plane string, n uint8) {
		if sc, err := ParseExposition(bytes.NewReader(doc)); err == nil && sc == nil {
			t.Fatal("ParseExposition returned neither a scrape nor an error")
		}
		if base == "" || strings.ContainsAny(base+code+plane, "{},=") {
			return
		}
		r := telemetry.New()
		labels := []telemetry.Label{{Key: "code", Value: code}, {Key: "plane", Value: plane}}
		r.Counter(telemetry.Name(base, labels...)).Add(int64(n))
		r.Gauge(base + ".g").Set(float64(n) / 3)
		r.Histogram(base+".h", []float64{1, 2 + float64(n)}).Observe(float64(n))
		sc, text := render(t, r)
		var counter string
		for fam, typ := range sc.Types {
			if typ == "counter" {
				counter = fam
			}
		}
		if len(sc.Types) != 3 || counter == "" {
			t.Fatalf("want a counter, a gauge and a histogram family, got %v\n%s", sc.Types, text)
		}
		v, err := sc.Value(counter, map[string]string{"code": code, "plane": plane})
		if err != nil || v != float64(n) {
			t.Fatalf("counter %s = %v (%v), want %d\n%s", counter, v, err, n, text)
		}
	})
}
