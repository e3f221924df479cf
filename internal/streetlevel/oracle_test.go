package streetlevel

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/netsim"
	"geoloc/internal/par"
	"geoloc/internal/web"
)

// TestSweepMatchesReference holds Geolocate, run under par.For, to
// refGeolocate, run serially on a second pipeline, on every Tiny target:
// equal results, and equal mapping and website counters. The hostile
// profile fails mapping lookups and makes landmarks stale, so both the
// failure paths and the stale drift of deferred placement are compared.
func TestSweepMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *core.Campaign
	}{{"none", camp}, {"hostile", hostileCampaign}} {
		t.Run(tc.name, func(t *testing.T) {
			prod, ref := New(tc.c), New(tc.c)
			n := len(tc.c.Targets)
			got := make([]Result, n)
			par.For(n, func(i int) { got[i] = prod.Geolocate(i) })
			landmarks := 0
			for i := range got {
				want := refGeolocate(t, ref, i)
				if !sameResult(got[i], want) {
					t.Fatalf("target %d: Geolocate differs from the reference:\n got %+v\nwant %+v", i, got[i], want)
				}
				landmarks += len(want.Landmarks)
			}
			if landmarks == 0 {
				t.Fatal("no target found a landmark: the comparison proves nothing")
			}
			gr, gp := prod.Map.Stats()
			wr, wp := ref.Map.Stats()
			if gr != wr || gp != wp {
				t.Errorf("mapping stats %d/%d, reference %d/%d", gr, gp, wr, wp)
			}
			if g, w := prod.Map.LookupFailures(), ref.Map.LookupFailures(); g != w {
				t.Errorf("lookup failures %d, reference %d", g, w)
			}
			if g, w := prod.Web.StaleSites(), ref.Web.StaleSites(); g != w {
				t.Errorf("stale sites %d, reference %d", g, w)
			}
			if tc.name == "hostile" && (ref.Map.LookupFailures() == 0 || ref.Web.StaleSites() == 0) {
				t.Errorf("hostile run failed %d lookups and resolved %d stale sites: a fault path went unexercised",
					ref.Map.LookupFailures(), ref.Web.StaleSites())
			}
		})
	}
}

// sameResult is reflect.DeepEqual with a NaN landmark delay equal to a
// NaN one.
func sameResult(a, b Result) bool {
	if len(a.Landmarks) != len(b.Landmarks) {
		return false
	}
	a.Landmarks, b.Landmarks = append([]Landmark(nil), a.Landmarks...), append([]Landmark(nil), b.Landmarks...)
	for i := range a.Landmarks {
		x, y := &a.Landmarks[i], &b.Landmarks[i]
		if math.IsNaN(x.DelayMs) != math.IsNaN(y.DelayMs) {
			return false
		}
		if math.IsNaN(x.DelayMs) {
			x.DelayMs, y.DelayMs = 0, 0
		}
	}
	return reflect.DeepEqual(a, b)
}

// refGeolocate is Geolocate over refSweep.
func refGeolocate(t *testing.T, p *Pipeline, target int) Result {
	res := Result{Target: target, Method: "cbg"}
	c := p.C
	region1, speed := p.tier1Region(target)
	if est, ok := region1.Centroid(); ok {
		res.Tier1, res.Tier1OK = est, true
	} else if sp, ok := c.TargetRTT.ShortestPingSubset(target, p.anchorRows); ok {
		res.Tier1 = sp
	} else {
		return res
	}
	res.UsedFallbackSpeed = speed != p.Cfg.SpeedKmPerMs
	res.Estimate = res.Tier1
	res.TimeSeconds += c.Platform.RoundSeconds(saltSL(target, 0))

	vps := p.closestAnchorVPs(target, p.Cfg.NumVPs)
	targetTraces := make([]netsim.Trace, len(vps))
	for i, vp := range vps {
		targetTraces[i] = c.Platform.Traceroute(c.VPs[vp], c.Targets[target], saltSL(target, 1))
	}
	seen := make(map[uint64]int)
	refSweep(t, p, &res, 2, res.Tier1, region1, p.Cfg.Tier2StepKm, p.Cfg.Tier2Points, p.Cfg.MaxCircles, vps, targetTraces, seen)
	res.TimeSeconds += c.Platform.RoundSeconds(saltSL(target, 2))
	region2, center2 := p.landmarkRegion(res.Landmarks, speed)
	if !center2.Valid() || len(region2.Circles) == 0 {
		region2, center2 = region1, res.Tier1
	}
	refSweep(t, p, &res, 3, center2, region2, p.Cfg.Tier3StepKm, p.Cfg.Tier3Points, p.Cfg.Tier3MaxCircles, vps, targetTraces, seen)
	res.TimeSeconds += c.Platform.RoundSeconds(saltSL(target, 3))

	res.TierCompleted = 1
	if lm, ok := bestLandmark(res.Landmarks, 3); ok {
		res.Estimate, res.Method, res.TierCompleted = lm.Site.POILoc, "landmark", 3
	} else if lm, ok := bestLandmark(res.Landmarks, 2); ok {
		res.Estimate, res.Method, res.TierCompleted = lm.Site.POILoc, "landmark", 2
	}
	neg := 0
	for _, lm := range res.Landmarks {
		if !math.IsNaN(lm.DelayMs) && lm.DelayMs < 0 {
			neg++
		}
	}
	if len(res.Landmarks) > 0 {
		res.NegativeDelayFrac = float64(neg) / float64(len(res.Landmarks))
	}
	res.TimeSeconds += c.Platform.MappingSeconds(res.MappingQueries) +
		c.Platform.WebTestSeconds(res.WebsiteTests)
	return res
}

// refLandmarkDelay is landmarkDelay with an allocated traceroute per
// (landmark, VP) and a growing slice of sums.
func refLandmarkDelay(p *Pipeline, vps []int, targetTraces []netsim.Trace, site *web.Website, target int) (float64, bool) {
	var sums []float64
	for i, vp := range vps {
		if targetTraces[i].Truncated {
			continue
		}
		ltrace := p.C.Platform.Traceroute(p.C.VPs[vp], &site.Server, saltSL(target, 4))
		if ltrace.Truncated || !ltrace.DstResponded {
			continue
		}
		ai, bi, ok := netsim.LastCommonHop(ltrace, targetTraces[i])
		if !ok {
			continue
		}
		sums = append(sums, ltrace.DstRTTMs-ltrace.Hops[ai].RTTMs+(targetTraces[i].DstRTTMs-targetTraces[i].Hops[bi].RTTMs))
	}
	if len(sums) == 0 {
		return math.NaN(), false
	}
	sort.Float64s(sums)
	delay := sums[0]
	if p.Cfg.DelayAggregation == "median" {
		delay = sums[len(sums)/2]
	}
	return delay, delay >= 0
}

// refSweep is the sweep with nothing deferred: a geo.Destination per
// sample point, Region.Contains for membership, every POI placed, and
// every candidate site resolved whole before the checks. A site that is
// not stale must sit where its POI was placed.
func refSweep(t *testing.T, p *Pipeline, res *Result, tier int, center geo.Point, region geo.Region,
	stepKm float64, points, maxCircles int, vps []int, targetTraces []netsim.Trace, seen map[uint64]int) {

	red := region.Reduced()
	seenZips := make(map[int]bool)
	for k := 1; k <= maxCircles; k++ {
		radius := stepKm * float64(k)
		anyInside := false
		for i := 0; i < points; i++ {
			pt := geo.Destination(center, 360*float64(i)/float64(points), radius)
			if len(red.Circles) > 0 && !red.Contains(pt) {
				continue
			}
			anyInside = true
			place, ok := p.Map.ReverseGeocode(pt)
			res.MappingQueries++
			if !ok {
				res.LookupFailures++
				continue
			}
			if seenZips[place.Zip] {
				continue
			}
			seenZips[place.Zip] = true
			pois, ok := p.Map.POIsInZip(place.CityID, place.Zone)
			if !ok {
				res.LookupFailures++
				continue
			}
			for _, poi := range pois {
				loc := poi.Loc()
				if !poi.HasWebsite {
					continue
				}
				if _, dup := seen[poi.Key]; dup {
					continue
				}
				site := p.Web.Resolve(poi)
				if !site.Stale && site.POILoc != loc {
					t.Fatalf("site %x at %v, its POI at %v", poi.Key, site.POILoc, loc)
				}
				res.WebsiteTests++
				if !web.RunChecks(site, place.Zip).Passed() {
					continue
				}
				delay, usable := refLandmarkDelay(p, vps, targetTraces, &site, res.Target)
				seen[poi.Key] = len(res.Landmarks)
				res.Landmarks = append(res.Landmarks, Landmark{
					Site: site, Zip: place.Zip, Tier: tier, DelayMs: delay, Usable: usable,
				})
			}
		}
		if !anyInside {
			break
		}
	}
}
