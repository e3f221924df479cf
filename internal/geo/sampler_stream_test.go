package geo_test

import (
	"math"
	"sort"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/world"
)

// The tests in this file hold the kernel to account on the inputs it is
// paid for: the constraint sets of a streaming compile (Tiny world, the 16
// lowest-RTT VPs of each target, 2/3c), with every distance stated over
// the record's confidence radius — the unit cmd/geodiff reports in and a
// consumer of the artifact reads.

// streamCircles returns target t's constraints as dataset.compileRecord
// builds them.
func streamCircles(s *core.StreamCampaign, t int, buf []cbg.Measurement) ([]geo.Circle, []cbg.Measurement) {
	_, buf = s.MeasureTarget(t, buf)
	var cs []geo.Circle
	for _, m := range buf {
		if m.RTTMs < 0 || math.IsNaN(m.RTTMs) {
			continue
		}
		cs = append(cs, geo.Circle{Center: m.VP, RadiusKm: geo.RTTToDistanceKm(m.RTTMs, geo.TwoThirdsC)})
	}
	return cs, buf
}

// recordRadius is the artifact's confidence radius for an estimate: the
// least dist(estimate, center) + radius over the reduced constraints.
func recordRadius(at geo.Point, reduced []geo.Circle) float64 {
	radius := math.Inf(1)
	for _, c := range reduced {
		radius = math.Min(radius, geo.Distance(at, c.Center)+c.RadiusKm)
	}
	return radius
}

// halfRingReference is the continuum the polar-grid estimators discretise:
// the same centre-weighted vector mean on a grid eight times denser each
// way (128 × 192), rings at half steps so that no point sits on the rim,
// membership by the exact haversine Circle.Contains.
func halfRingReference(reduced geo.Region) (geo.Point, bool) {
	const rings, bearings = 8 * geo.DefaultSampleRings, 8 * geo.DefaultSampleBearings
	tight := reduced.Circles[0]
	pts := make([]geo.Point, 0, rings*bearings)
	for ri := 0; ri < rings; ri++ {
		rad := tight.RadiusKm * (float64(ri) + 0.5) / rings
		for bi := 0; bi < bearings; bi++ {
			if p := geo.Destination(tight.Center, 360*float64(bi)/bearings, rad); reduced.Contains(p) {
				pts = append(pts, p)
			}
		}
	}
	return geo.Centroid(pts)
}

func quantiles(v []float64) (p50, p90, p99, max float64) {
	sort.Float64s(v)
	at := func(q float64) float64 { return v[int(q*float64(len(v)-1))] }
	return at(0.5), at(0.9), at(0.99), v[len(v)-1]
}

func streamFixture(t testing.TB, targets int) *core.StreamCampaign {
	t.Helper()
	s, err := core.NewStreamCampaign(core.NewCampaign(world.TinyConfig()), core.StreamSpec{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// kernelCentroid runs the kernel on the circles in order.
func kernelCentroid(sm *geo.Sampler, cs []geo.Circle) (geo.Point, bool) {
	sm.Reset()
	for _, c := range cs {
		sm.Add(c)
	}
	return sm.Centroid()
}

// legacyCentroid is the chain the kernel replaced, the parent kernel's
// answer bit for bit.
func legacyCentroid(r *geo.Region) (geo.Point, bool) {
	return geo.Centroid(r.SamplePoints(geo.DefaultSampleRings, geo.DefaultSampleBearings))
}

// streamCase is one stream target as both TestSamplerStream* tests read
// it: its constraints, their reduction, and the legacy chain's answer.
type streamCase struct {
	cs       []geo.Circle
	reduced  geo.Region
	legacy   geo.Point
	legacyOK bool
}

// streamCases holds the cases built so far, target by target from 0, over
// one Tiny stream fixture: target t's constraints do not depend on the
// fixture's target count, so a test wanting n cases reads a prefix.
var streamCases struct {
	s     *core.StreamCampaign
	buf   []cbg.Measurement
	cases []streamCase
}

// streamCasesUpTo returns the first n stream cases, building the fixture
// once and the cases past those already built, their legacy answers under
// par.For. Tests in this package run one at a time, so nothing guards it.
func streamCasesUpTo(t testing.TB, n int) []streamCase {
	t.Helper()
	sc := &streamCases
	if sc.s == nil {
		sc.s = streamFixture(t, 20000)
	}
	built := len(sc.cases)
	for ti := built; ti < n; ti++ {
		var c streamCase
		c.cs, sc.buf = streamCircles(sc.s, ti, sc.buf)
		sc.cases = append(sc.cases, c)
	}
	par.For(max(n-built, 0), func(i int) {
		c := &sc.cases[built+i]
		region := geo.Region{Circles: c.cs}
		c.reduced = region.Reduced()
		c.legacy, c.legacyOK = legacyCentroid(&region)
	})
	return sc.cases[:n]
}

// TestSamplerStreamRecordsStayWithinBound is the geodiff acceptance bound
// as a test: on stream inputs no estimate sits further than 2.5 % of the
// record's radius from the legacy chain's (the parent kernel's, bit for
// bit), and both sides locate the same targets.
func TestSamplerStreamRecordsStayWithinBound(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var sm geo.Sampler
	var shares []float64
	for ti, c := range streamCasesUpTo(t, n) {
		want, wantOK := c.legacy, c.legacyOK
		got, ok := kernelCentroid(&sm, c.cs)
		if ok != wantOK {
			t.Fatalf("target %d: kernel ok=%v, legacy chain ok=%v", ti, ok, wantOK)
		}
		if !ok {
			continue
		}
		share := geo.Distance(got, want) / recordRadius(want, c.reduced.Circles)
		if share > 0.025 {
			t.Fatalf("target %d: estimate %v is %.2f%% of the record radius from the legacy chain's %v", ti, got, 100*share, want)
		}
		shares = append(shares, share)
	}
	p50, p90, p99, max := quantiles(shares)
	t.Logf("%d stream targets: move / radius p50 %.2f%% p90 %.2f%% p99 %.2f%% max %.2f%%",
		len(shares), 100*p50, 100*p90, 100*p99, 100*max)
	if p50 > 0.01 {
		t.Errorf("median move %.2f%% of the record radius, want <= 1%%", 100*p50)
	}
}

// TestSamplerStreamCloserToReference: against the dense half-ring
// reference the kernel is exact wherever no constraint cuts the sample
// circle — most stream targets, where the legacy chain is off by its rim
// noise — and no worse than the chain where one does: there both are one
// 16 × 24 grid's worth of discretisation from the continuum.
func TestSamplerStreamCloserToReference(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	cases := streamCasesUpTo(t, n)
	type refAnswer struct {
		p  geo.Point
		ok bool
	}
	refs := make([]refAnswer, n)
	par.For(n, func(ti int) {
		if cases[ti].legacyOK {
			refs[ti].p, refs[ti].ok = halfRingReference(cases[ti].reduced)
		}
	})
	var sm geo.Sampler
	var kernel, legacy []float64
	for ti, c := range cases {
		reduced := c.reduced
		got, ok := kernelCentroid(&sm, c.cs)
		old, oldOK := c.legacy, c.legacyOK
		if !ok || !oldOK {
			continue
		}
		ref, refOK := refs[ti].p, refs[ti].ok
		if !refOK {
			t.Fatalf("target %d: located by both grids, empty on the reference", ti)
		}
		radius := recordRadius(ref, reduced.Circles)
		kernel = append(kernel, geo.Distance(got, ref)/radius)
		legacy = append(legacy, geo.Distance(old, ref)/radius)
	}
	k50, k90, k99, kmax := quantiles(kernel)
	l50, l90, l99, lmax := quantiles(legacy)
	t.Logf("%d stream targets, distance to the 128 x 192 reference / radius:", len(kernel))
	t.Logf("  kernel  p50 %.2f%% p90 %.2f%% p99 %.2f%% max %.2f%%", 100*k50, 100*k90, 100*k99, 100*kmax)
	t.Logf("  legacy  p50 %.2f%% p90 %.2f%% p99 %.2f%% max %.2f%%", 100*l50, 100*l90, 100*l99, 100*lmax)
	exact := func(sorted []float64) float64 {
		return float64(sort.SearchFloat64s(sorted, 1e-4)) / float64(len(sorted))
	}
	t.Logf("  within 0.01%%: kernel %.0f%%, legacy %.0f%% of targets", 100*exact(kernel), 100*exact(legacy))
	if exact(kernel) < 0.4 || exact(legacy) > 0.1 {
		t.Errorf("targets within 0.01%% of the reference: kernel %.0f%% (want >= 40%%), legacy %.0f%% (want <= 10%%)",
			100*exact(kernel), 100*exact(legacy))
	}
	if k50 > l50/2 {
		t.Errorf("median: kernel %.3f%%, legacy %.3f%%; want at most half", 100*k50, 100*l50)
	}
	if k90 >= l90 {
		t.Errorf("p90: kernel %.2f%% is not ahead of legacy %.2f%%", 100*k90, 100*l90)
	}
	if kmax > 0.035 || kmax > lmax+0.01 {
		t.Errorf("tail: kernel max %.2f%%, legacy max %.2f%%; want <= 3.5%% and within a point of the chain", 100*kmax, 100*lmax)
	}
}

// BenchmarkSamplerStream times one locate on stream constraint sets — the
// kernel's share of a compiled target (profiling entry point).
func BenchmarkSamplerStream(b *testing.B) {
	const n = 512
	s := streamFixture(b, n)
	sets := make([][]geo.Circle, n)
	var buf []cbg.Measurement
	for ti := range sets {
		sets[ti], buf = streamCircles(s, ti, buf)
	}
	var sm geo.Sampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint, _ = kernelCentroid(&sm, sets[i%n])
	}
}

var sinkPoint geo.Point
