package vpsel

import (
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
)

// regionFromSubset is the constraint region reducedRegion reduces: one
// circle per usable measurement of the subset, in subset order.
func regionFromSubset(m *cbg.Matrix, subset []int, target int, speed float64) geo.Region {
	var r geo.Region
	for _, vp := range subset {
		rtt := float64(m.Column(target)[vp])
		if math.IsNaN(rtt) || rtt < 0 {
			continue
		}
		r.Add(geo.Circle{Center: m.VPs[vp], RadiusKm: geo.RTTToDistanceKm(rtt, speed)})
	}
	return r
}

// refRegionCandidates is regionCandidates as a plain scan: every VP of the
// matrix tested against every circle of the reduced region, one VP per
// (AS, city) kept in matrix order.
func refRegionCandidates(repRTT *cbg.Matrix, meta []VPMeta, red geo.Region) []int {
	redTrig := make([]geo.TrigCircle, len(red.Circles))
	for i, c := range red.Circles {
		redTrig[i] = geo.MakeTrigCircle(c)
	}
	type key struct{ as, city int }
	seen := make(map[key]bool)
	var candidates []int
	for vp := range repRTT.VPs {
		pt := repRTT.VPTrig(vp)
		inside := true
		for _, tc := range redTrig {
			if !tc.ContainsTrig(pt) {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		k := key{meta[vp].AS, meta[vp].City}
		if seen[k] {
			continue
		}
		seen[k] = true
		candidates = append(candidates, vp)
	}
	return candidates
}

// sameCircles reports whether the reduced TrigCircles are red's circles,
// in order and bit for bit, each over its centre's own trig.
func sameCircles(got []geo.TrigCircle, red geo.Region) bool {
	if len(got) != len(red.Circles) {
		return false
	}
	for i, c := range red.Circles {
		g := got[i]
		if g.Center != c.Center || math.Float64bits(g.RadiusKm) != math.Float64bits(c.RadiusKm) ||
			g.T != geo.MakeTrig(c.Center) {
			return false
		}
	}
	return true
}

// TestRegionScanMatchesReference holds the TrigCuts reduction to
// Region.Reduced circle for circle, and regionCandidates' latitude-band
// scan of the Tiny matrix to the plain scan, for every Tiny target at
// first-step sizes 10, 100 and 300.
func TestRegionScanMatchesReference(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	regions, banded := 0, 0
	for _, size := range []int{10, 100, 300} {
		firstStep := GreedyCover(locs, size)
		for target := range camp.Targets {
			region := regionFromSubset(camp.RepRTT, firstStep, target, geo.TwoThirdsC)
			red := region.Reduced()
			got := reducedRegion(camp.RepRTT, firstStep, target, geo.TwoThirdsC, nil)
			if !sameCircles(got, red) {
				t.Fatalf("size %d, target %d: reducedRegion %+v, Region.Reduced %+v", size, target, got, red.Circles)
			}
			if len(got) == 0 {
				continue
			}
			regions++
			if lo, hi := got[0].LatBand(); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
				banded++
			}
			if c, want := regionCandidates(camp.RepRTT, meta, got), refRegionCandidates(camp.RepRTT, meta, red); !slices.Equal(c, want) {
				t.Fatalf("size %d, target %d: candidates %v, plain scan %v", size, target, c, want)
			}
		}
	}
	if regions == 0 || banded == 0 {
		t.Fatalf("%d regions, %d with a finite latitude band: the band scan went untested", regions, banded)
	}
}

// TestRegionCandidatesSyntheticRegions holds regionCandidates to the plain
// scan on regions the campaign does not draw: one spanning a pole, one
// across the antimeridian, one whose tightest radius is half the
// circumference or more, and ordinary ones for contrast, over VPs that
// sit on both poles, on the antimeridian from both sides and on a 7.5°
// grid, several sharing an (AS, city), and no circle at all, whose band
// is every latitude.
func TestRegionCandidatesSyntheticRegions(t *testing.T) {
	vps := []geo.Point{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 45}, {Lat: 89.9, Lon: 180}, {Lat: 0, Lon: 180},
		{Lat: 0, Lon: -180}, {Lat: 12, Lon: 179.99}, {Lat: 12, Lon: -179.99}}
	for lat := -90.0; lat <= 90; lat += 7.5 {
		for lon := -180.0; lon < 180; lon += 7.5 {
			vps = append(vps, geo.Point{Lat: lat, Lon: lon})
		}
	}
	meta := make([]VPMeta, len(vps))
	for i := range meta {
		meta[i] = VPMeta{AS: i % 97, City: (i / 3) % 211}
	}
	m := cbg.NewMatrix(vps, 1, nil)
	half := math.Pi * geo.EarthRadiusKm
	for _, tc := range []struct {
		name    string
		circles []geo.Circle
	}{
		{"north pole", []geo.Circle{{Center: geo.Point{Lat: 86, Lon: 10}, RadiusKm: 900}, {Center: geo.Point{Lat: 70, Lon: 190 - 360}, RadiusKm: 3000}}},
		{"south pole", []geo.Circle{{Center: geo.Point{Lat: -89, Lon: -120}, RadiusKm: 2500}}},
		{"antimeridian", []geo.Circle{{Center: geo.Point{Lat: 10, Lon: 179.5}, RadiusKm: 1500}, {Center: geo.Point{Lat: 5, Lon: -178}, RadiusKm: 2200}}},
		{"half circumference", []geo.Circle{{Center: geo.Point{Lat: 30, Lon: 60}, RadiusKm: half}}},
		{"beyond half circumference", []geo.Circle{{Center: geo.Point{Lat: -40, Lon: -100}, RadiusKm: 1.5 * half}, {Center: geo.Point{Lat: 0, Lon: 0}, RadiusKm: 2 * half}}},
		{"just under half circumference", []geo.Circle{{Center: geo.Point{Lat: 45, Lon: 0}, RadiusKm: half - 1}}},
		{"on a grid VP", []geo.Circle{{Center: geo.Point{Lat: 15, Lon: 22.5}, RadiusKm: 0}}},
		{"ordinary", []geo.Circle{{Center: geo.Point{Lat: 48, Lon: 2}, RadiusKm: 1200}, {Center: geo.Point{Lat: 40, Lon: -3}, RadiusKm: 1800}}},
		{"negative radius", []geo.Circle{{Center: geo.Point{Lat: 0, Lon: 0}, RadiusKm: -1}}},
		{"no circle", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r geo.Region
			for _, c := range tc.circles {
				r.Add(c)
			}
			red := r.Reduced()
			var tcs []geo.TrigCircle
			for _, c := range red.Circles {
				tcs = append(tcs, geo.MakeTrigCircle(c))
			}
			want := refRegionCandidates(m, meta, red)
			if (len(want) == 0) != (tc.name == "negative radius") {
				t.Fatalf("the plain scan finds %d candidates", len(want))
			}
			if got := regionCandidates(m, meta, tcs); !slices.Equal(got, want) {
				t.Errorf("candidates %v, plain scan %v", got, want)
			}
		})
	}
}

// TestRegionCandidatesAllocs pins a candidate scan at two allocations,
// the dedupe set and the answer, over the campaign's real regions.
func TestRegionCandidatesAllocs(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)
	var regions [][]geo.TrigCircle
	for target := range camp.Targets {
		if r := reducedRegion(camp.RepRTT, firstStep, target, geo.TwoThirdsC, nil); len(r) > 0 {
			regions = append(regions, r)
		}
	}
	if len(regions) == 0 {
		t.Fatal("no target has a region")
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		regionCandidates(camp.RepRTT, meta, regions[i%len(regions)])
		i++
	}); n > 2 {
		t.Fatalf("regionCandidates makes %v allocations per call, want at most 2", n)
	}
}

// TestTwoStepSelectAllocs pins a two-step selection at the two allocations
// of its region candidate scan over the campaign's targets: the region,
// the sweep's round and the lowest-RTT pick live on the stack, and the
// region's sampler comes from geo's pool. The collector is off while it
// counts, since a cycle empties the pool.
func TestTwoStepSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		TwoStepSelect(camp.RepRTT, meta, firstStep, i%len(camp.Targets))
		i++
	}); n > 2 {
		t.Fatalf("TwoStepSelect makes %v allocations per call, want at most 2", n)
	}
}
