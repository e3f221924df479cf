package telemetry

import (
	"strings"
	"testing"
)

func TestCounterGating(t *testing.T) {
	r := NewDisabled()
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("disabled counter recorded: %d", c.Value())
	}
	r.SetEnabled(true)
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("enabled counter = %d, want 6", c.Value())
	}
	r.SetEnabled(false)
	c.Add(100)
	if c.Value() != 6 {
		t.Fatalf("counter updated while disabled: %d", c.Value())
	}
}

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
	r.SetEnabled(false)
	g.Set(9)
	if g.Value() != 2.5 {
		t.Fatalf("gauge updated while disabled: %v", g.Value())
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

func TestReset(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	c.Add(3)
	g.Set(4)
	h.Observe(5)
	sp := r.StartSpan("s")
	sp.End()
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset left metric values behind")
	}
	if len(r.Spans()) != 0 {
		t.Fatal("Reset left spans behind")
	}
	c.Add(1)
	if c.Value() != 1 {
		t.Fatal("handle dead after Reset")
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

func TestDefaultDisabled(t *testing.T) {
	if Default().IsEnabled() && !testDefaultEnabled {
		t.Fatal("global default registry must start disabled")
	}
}

// testDefaultEnabled guards against test-order effects if a future test
// flips the global registry on.
var testDefaultEnabled = Default().IsEnabled()
