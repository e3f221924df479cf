package telemetry

import (
	"strings"
	"testing"
)

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	s.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if Default() != nil {
		t.Fatal("Default must be the nil registry")
	}
	var r *Registry
	r.SetEnabled(true)
	r.SetEnabled(false)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil || out.Len() != 0 {
		t.Fatalf("nil registry's exposition = %q, %v; want empty, nil", out.String(), err)
	}
	if spans := r.Spans(); len(spans) != 0 {
		t.Fatalf("nil registry has %d spans, want none", len(spans))
	}
}

func TestCounterHandleIdentity(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("different names must return different counters")
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("g")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 2, 10, 11} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 2 || len(counts) != 3 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	// v <= 1 → bucket 0 (0.5, 1); 1 < v <= 10 → bucket 1 (2, 10); v > 10 → overflow (11).
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts = %v, want [2 2 1]", counts)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 24.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

// TestSnapshotSortedAndComplete: the one read of a registry carries every
// metric of every kind, families in name order.
func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Gauge("g").Set(3)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	want := []string{"a_total counter", "g gauge", "h histogram", "z_total counter"}
	if strings.Join(types, ";") != strings.Join(want, ";") {
		t.Fatalf("families = %q, want %q\n%s", types, want, b.String())
	}
	for _, sample := range []string{"a_total 2\n", "g 3\n", "h_count 1\n", "z_total 1\n"} {
		if !strings.Contains(b.String(), sample) {
			t.Errorf("exposition lacks %q:\n%s", sample, b.String())
		}
	}
}
