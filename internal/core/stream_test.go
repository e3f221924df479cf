package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/world"
)

var (
	streamCampOnce sync.Once
	streamCamp     *Campaign
)

// streamFixture shares one tiny campaign (world + sanitization only —
// no matrices, the point of the streaming path) across the file's
// tests.
func streamFixture(t *testing.T) *Campaign {
	t.Helper()
	streamCampOnce.Do(func() { streamCamp = NewCampaign(world.TinyConfig()) })
	return streamCamp
}

func TestStreamCampaignDeterministic(t *testing.T) {
	c := streamFixture(t)
	s1, err := NewStreamCampaign(c, StreamSpec{Targets: 200, VPsPerTarget: 8})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStreamCampaign(c, StreamSpec{Targets: 200, VPsPerTarget: 8})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 []cbg.Measurement
	for _, tgt := range []int{0, 1, 7, 99, 199} {
		p1, m1 := s1.MeasureTarget(tgt, b1)
		p2, m2 := s2.MeasureTarget(tgt, b2)
		b1, b2 = m1, m2
		if p1 != p2 {
			t.Fatalf("target %d: prefixes differ (%s vs %s)", tgt, p1, p2)
		}
		if len(m1) != len(m2) {
			t.Fatalf("target %d: measurement counts differ (%d vs %d)", tgt, len(m1), len(m2))
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("target %d measurement %d: %+v vs %+v", tgt, i, m1[i], m2[i])
			}
		}
	}
	// Repeat calls on the same instance must also be bit-identical (resume
	// re-measures through the same instance).
	pa, ma := s1.MeasureTarget(42, nil)
	pb, mb := s1.MeasureTarget(42, nil)
	if pa != pb || len(ma) != len(mb) {
		t.Fatalf("repeat measurement of target 42 differs")
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("repeat measurement of target 42 differs at %d", i)
		}
	}
}

func TestStreamCampaignMeasurementShape(t *testing.T) {
	c := streamFixture(t)
	const k = 8
	s, err := NewStreamCampaign(c, StreamSpec{Targets: 500, VPsPerTarget: k})
	if err != nil {
		t.Fatal(err)
	}
	var buf []cbg.Measurement
	last := s.TargetPrefix(0)
	for tgt := 0; tgt < 500; tgt++ {
		p, ms := s.MeasureTarget(tgt, buf)
		buf = ms
		if tgt > 0 && p <= last {
			t.Fatalf("target %d: prefix %s not greater than previous %s", tgt, p, last)
		}
		last = p
		if len(ms) > k {
			t.Fatalf("target %d: %d measurements exceed K=%d", tgt, len(ms), k)
		}
		loc := s.TargetLocation(tgt)
		for i, m := range ms {
			if m.RTTMs <= 0 || math.IsNaN(m.RTTMs) {
				t.Fatalf("target %d measurement %d: bad RTT %g", tgt, i, m.RTTMs)
			}
			// The synthetic path factor is >= 1 at two-thirds c, so the CBG
			// constraint disk around the (true-location) VP must contain the
			// target — the same invariant netsim's physics guarantees. The
			// measurement's VP field is the reported location; sanitized VPs
			// report truthfully enough that the check still holds with the
			// last-mile slack included.
			bound := geo.RTTToDistanceKm(m.RTTMs, geo.TwoThirdsC)
			if d := geo.Distance(m.VP, loc); d > bound+1 {
				t.Fatalf("target %d measurement %d: VP %.1f km away but disk is %.1f km",
					tgt, i, d, bound)
			}
		}
	}
}

// TestMeasureTargetAllocs is the write path's allocation gate: once the
// caller's buffer holds K, measuring a target allocates nothing — the
// selection heap, the hash streams and every bound live on the stack.
func TestMeasureTargetAllocs(t *testing.T) {
	s, err := NewStreamCampaign(streamFixture(t), StreamSpec{Targets: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]cbg.Measurement, 0, s.Spec.VPsPerTarget)
	tgt := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		tgt++
		_, buf = s.MeasureTarget(tgt, buf)
	}); allocs != 0 {
		t.Fatalf("MeasureTarget allocates %.2f times per call; want 0", allocs)
	}
}

// TestReachKm holds reachKm to its contract on bounds from just below the
// two last miles up to a second: every distance past it prices strictly
// above the bound at the floor path factor and the smallest last mile,
// and it pads no more than its margins.
func TestReachKm(t *testing.T) {
	s, err := NewStreamCampaign(streamFixture(t), StreamSpec{Targets: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		lastMile := 0.2 + 15.8*rng.Float64()
		slack := math.Pow(10, -12+15*rng.Float64()) - 1e-9
		bound := lastMile + s.minLastMile + slack
		r := s.reachKm(bound, lastMile)
		floor := func(d float64) float64 { return pathRTT(propMs(d), minInflate, lastMile, s.minLastMile) }
		for _, d := range []float64{math.Nextafter(r, math.Inf(1)), r * (1 + 1e-12), 2 * r} {
			if !(floor(d) > bound) {
				t.Fatalf("bound %v, last mile %v: %v km past reach %v prices %v", bound, lastMile, d, r, floor(d))
			}
		}
		if d := r*(1-1e-5) - 2e-6; slack > 1e-6 && floor(d) > bound {
			t.Fatalf("bound %v, last mile %v: reach %v is padded past %v km, which already prices %v", bound, lastMile, r, d, floor(d))
		}
	}
}

func TestStreamCampaignSpecValidation(t *testing.T) {
	c := streamFixture(t)
	if _, err := NewStreamCampaign(c, StreamSpec{Targets: 0}); err == nil {
		t.Fatal("zero targets accepted")
	}
	if _, err := NewStreamCampaign(c, StreamSpec{Targets: 1 << 25}); err == nil {
		t.Fatal("target count overflowing the /24 space accepted")
	}
	s, err := NewStreamCampaign(c, StreamSpec{Targets: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.VPsPerTarget != DefaultVPsPerTarget {
		t.Fatalf("K default not applied: %d", s.Spec.VPsPerTarget)
	}
	if s.Spec.Base != DefaultStreamBase {
		t.Fatalf("base default not applied: %s", s.Spec.Base)
	}
	// Identity hash must move with every spec knob.
	h := func(spec StreamSpec) uint64 {
		sc, err := NewStreamCampaign(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		return sc.ConfigHash()
	}
	base := h(StreamSpec{Targets: 10})
	if h(StreamSpec{Targets: 11}) == base {
		t.Fatal("target count not in identity hash")
	}
	if h(StreamSpec{Targets: 10, VPsPerTarget: 9}) == base {
		t.Fatal("K not in identity hash")
	}
	if h(StreamSpec{Targets: 10, Base: DefaultStreamBase + 1}) == base {
		t.Fatal("base prefix not in identity hash")
	}

	// Full-routable-IPv4 counts slide the DEFAULT base down (never below
	// minStreamBase, clear of the world allocator's 10.0.0.0/8) so the
	// paper-scale campaign fits; an explicit base is never adjusted.
	big, err := NewStreamCampaign(c, StreamSpec{Targets: 16_000_000})
	if err != nil {
		t.Fatalf("16M targets rejected: %v", err)
	}
	if big.Spec.Base < minStreamBase {
		t.Fatalf("slid base %s below minStreamBase %s", big.Spec.Base, minStreamBase)
	}
	if last := uint64(big.Spec.Base) + uint64(big.Spec.Targets) - 1; last > 0x00FF_FFFF {
		t.Fatalf("slid base %s still overflows", big.Spec.Base)
	}
	if _, err := NewStreamCampaign(c, StreamSpec{Targets: 16_000_000, Base: DefaultStreamBase}); err == nil {
		t.Fatal("explicit overflowing base accepted")
	}
}

// TestStreamScale: a numeric scale is a target count from 1 to 2^24,
// written plainly or in float notation; a scale name, a fraction below
// one and a count past the /24 space are not.
func TestStreamScale(t *testing.T) {
	for _, tc := range []struct {
		s       string
		targets int
		ok      bool
	}{
		{"50000", 50000, true},
		{"1e6", 1000000, true},
		{"1", 1, true},
		{"16777216", 1 << 24, true},
		{"16777217", 0, false},
		{"0", 0, false},
		{"0.5", 0, false},
		{"-3", 0, false},
		{"tiny", 0, false},
		{"", 0, false},
	} {
		if n, ok := StreamScale(tc.s); n != tc.targets || ok != tc.ok {
			t.Errorf("StreamScale(%q) = %d, %v; want %d, %v", tc.s, n, ok, tc.targets, tc.ok)
		}
	}
}
