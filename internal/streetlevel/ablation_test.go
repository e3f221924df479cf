package streetlevel

import (
	"math"
	"testing"

	"geoloc/internal/geo"
)

func TestDelayAggregationVariantsDiffer(t *testing.T) {
	pMin := NewWithConfig(camp, Config{DelayAggregation: "min"})
	pMed := NewWithConfig(camp, Config{DelayAggregation: "median"})

	// Tier-2 discovery is aggregation-independent (same tier-1 centre and
	// region); only the delays attached to those landmarks differ. Tier 3
	// legitimately diverges because the tier-2 region depends on delays.
	differ := false
	for target := 0; target < len(camp.Targets) && !differ; target += 4 {
		a := pMin.Geolocate(target)
		b := pMed.Geolocate(target)
		aT2 := map[uint64]float64{}
		for _, lm := range a.Landmarks {
			if lm.Tier == 2 {
				aT2[lm.Site.Key] = lm.DelayMs
			}
		}
		bT2 := map[uint64]float64{}
		for _, lm := range b.Landmarks {
			if lm.Tier == 2 {
				bT2[lm.Site.Key] = lm.DelayMs
			}
		}
		if len(aT2) != len(bT2) {
			t.Fatalf("aggregation must not change tier-2 discovery (%d vs %d)", len(aT2), len(bT2))
		}
		for key, da := range aT2 {
			db, ok := bT2[key]
			if !ok {
				t.Fatal("tier-2 landmark sets differ")
			}
			if math.IsNaN(da) != math.IsNaN(db) {
				t.Fatal("aggregation changed delay availability")
			}
			if !math.IsNaN(da) && !math.IsNaN(db) {
				if db < da-1e-9 {
					t.Fatalf("median aggregate %v below min aggregate %v", db, da)
				}
				if db != da {
					differ = true
				}
			}
		}
	}
	if !differ {
		t.Error("median and min aggregation never differed — ablation is vacuous")
	}
}

func TestMedianAggregationReducesNegatives(t *testing.T) {
	pMed := NewWithConfig(camp, Config{DelayAggregation: "median"})

	var minNeg, medNeg, n float64
	for target := 0; target < len(camp.Targets); target += 3 {
		a := pipe.Geolocate(target)
		b := pMed.Geolocate(target)
		if len(a.Landmarks) == 0 {
			continue
		}
		minNeg += a.NegativeDelayFrac
		medNeg += b.NegativeDelayFrac
		n++
	}
	if n == 0 {
		t.Skip("no landmarks found")
	}
	if medNeg > minNeg {
		t.Errorf("median aggregation should not increase negative fraction: %.3f vs %.3f",
			medNeg/n, minNeg/n)
	}
}

func TestSweepRespectsRegion(t *testing.T) {
	// Landmarks discovered by a sweep must lie near the sweep region: every
	// landmark's discovery zip was reverse-geocoded from an in-region point.
	res := pipe.Geolocate(0)
	region, _ := refTier1Region(pipe, 0)
	red := region.Reduced()
	tight, ok := red.Tightest()
	if !ok {
		t.Skip("no region")
	}
	// Landmarks can sit one city-radius beyond the sampled point; allow a
	// generous margin over the tightest constraint.
	limit := tight.RadiusKm + 3000
	for _, lm := range res.Landmarks {
		if d := geo.Distance(lm.Site.POILoc, tight.Center); d > limit {
			t.Fatalf("landmark %.0f km from region center, limit %.0f", d, limit)
		}
	}
}

func TestFallbackSpeedRegionNonEmpty(t *testing.T) {
	for target := 0; target < len(camp.Targets); target += 5 {
		var sm geo.Sampler
		if _, ok, speed := pipe.tier1Region(&sm, target); !ok {
			// Even the fallback failed; must then be the conservative speed.
			if speed != fallbackSpeed {
				t.Fatalf("empty region at non-fallback speed for target %d", target)
			}
		}
	}
}
