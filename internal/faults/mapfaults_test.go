package faults

import (
	"math"
	"testing"

	"geoloc/internal/rhash"
)

func TestLookupFailedDisabled(t *testing.T) {
	for _, p := range []*Profile{nil, None(), {}} {
		for salt := uint64(0); salt < 100; salt++ {
			if p.LookupFailed(1, 2, salt, 0) {
				t.Fatal("disabled profile failed a mapping lookup")
			}
			if _, _, stale := p.StaleDrift(1, salt); stale {
				t.Fatal("disabled profile staled a landmark")
			}
		}
	}
}

func TestLookupFailedDeterministicAndPersistent(t *testing.T) {
	p := Hostile()
	for salt := uint64(0); salt < 200; salt++ {
		first := p.LookupFailed(9, 1, salt, 0)
		// Re-asking the identical query must fail identically — the
		// pipeline has to degrade around a failed lookup, not retry it.
		for i := 0; i < 3; i++ {
			if p.LookupFailed(9, 1, salt, 0) != first {
				t.Fatal("LookupFailed not persistent for identical query")
			}
		}
	}
}

func TestLookupFailRateApproximatesProfile(t *testing.T) {
	p := &Profile{LookupFailProb: 0.25}
	fails := 0
	const n = 4000
	for salt := uint64(0); salt < n; salt++ {
		if p.LookupFailed(123, 7, salt, 0) {
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("lookup failure rate %.3f, profile says 0.25", rate)
	}
}

func TestStaleDriftBounded(t *testing.T) {
	p := &Profile{StaleLandmarkProb: 0.5, StaleDriftMaxKm: 10}
	stales := 0
	const n = 2000
	for key := uint64(0); key < n; key++ {
		brg, dist, stale := p.StaleDrift(42, key)
		b2, d2, s2 := p.StaleDrift(42, key)
		if brg != b2 || dist != d2 || stale != s2 {
			t.Fatal("StaleDrift not deterministic")
		}
		if !stale {
			if brg != 0 || dist != 0 {
				t.Fatal("non-stale draw returned a drift")
			}
			continue
		}
		stales++
		if brg < 0 || brg >= 360 {
			t.Fatalf("bearing %v out of [0,360)", brg)
		}
		if dist <= 0 || dist > 10 {
			t.Fatalf("drift %v km outside (0, max]", dist)
		}
	}
	rate := float64(stales) / n
	if rate < 0.43 || rate > 0.57 {
		t.Fatalf("stale rate %.3f, profile says 0.5", rate)
	}
}

func TestScaleCoversMappingKnobs(t *testing.T) {
	p := Hostile().Scale(0.5)
	if p.LookupFailProb != Hostile().LookupFailProb*0.5 {
		t.Fatal("Scale missed LookupFailProb")
	}
	if p.StaleLandmarkProb != Hostile().StaleLandmarkProb*0.5 {
		t.Fatal("Scale missed StaleLandmarkProb")
	}
	if p.StaleDriftMaxKm != Hostile().StaleDriftMaxKm*0.5 {
		t.Fatal("Scale missed StaleDriftMaxKm")
	}
	if !(&Profile{LookupFailProb: 0.1}).Enabled() || !(&Profile{StaleLandmarkProb: 0.1}).Enabled() {
		t.Fatal("Enabled ignores the mapping-service knobs")
	}
}

// TestLookupFailedMatchesUnitFloat pins LookupFailed's draw to
// rhash.UnitFloat(seed, kLookup, kind, a, b) bit for bit, the draw the
// variadic form made of the same four words: a profile whose failure
// probability is exactly the draw u passes the query (u < u is false), and
// one a single ulp above u fails it.
func TestLookupFailedMatchesUnitFloat(t *testing.T) {
	s := rhash.New(45)
	for range 10000 {
		seed, kind, a, b := s.Uint64(), s.Uint64()%4, s.Uint64(), s.Uint64()
		u := rhash.UnitFloat(seed, kLookup, kind, a, b)
		if (&Profile{LookupFailProb: u}).LookupFailed(seed, kind, a, b) {
			t.Fatalf("LookupFailed(%d, %d, %d, %d) drew below UnitFloat's %v", seed, kind, a, b, u)
		}
		if !(&Profile{LookupFailProb: math.Nextafter(u, 1)}).LookupFailed(seed, kind, a, b) {
			t.Fatalf("LookupFailed(%d, %d, %d, %d) drew above UnitFloat's %v", seed, kind, a, b, u)
		}
	}
}

// TestLookupFailedAllocs pins a mapping-query fault draw at zero
// allocations: the street-level sweep makes one per mapping query.
func TestLookupFailedAllocs(t *testing.T) {
	p := Hostile()
	var salt uint64
	if n := testing.AllocsPerRun(1000, func() {
		salt++
		p.LookupFailed(9, 1, salt, salt>>1)
	}); n != 0 {
		t.Fatalf("LookupFailed makes %v allocations per call, want 0", n)
	}
}
