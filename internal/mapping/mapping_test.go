package mapping

import (
	"math"
	"math/rand"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/world"
)

var (
	tw  = world.Generate(world.TinyConfig())
	svc = NewService(tw)
)

func TestReverseGeocodeInsideCity(t *testing.T) {
	for i := 0; i < len(tw.Cities); i += 5 {
		c := &tw.Cities[i]
		pl, ok := svc.ReverseGeocode(c.Loc)
		if !ok {
			t.Fatal("faultless service failed a lookup")
		}
		if pl.CityID != c.ID {
			// Another city may genuinely be closer if centres overlap; only
			// fail when the resolved city is farther than this one.
			resolved := &tw.Cities[pl.CityID]
			if geo.Distance(c.Loc, resolved.Loc) > 0 {
				t.Errorf("city %d centre resolved to city %d", c.ID, pl.CityID)
			}
		}
		if _, ok := c.ZipZone(pl.Zip); pl.CityID == c.ID && !ok {
			t.Errorf("zip %d not valid for city %d", pl.Zip, c.ID)
		}
	}
}

func TestReverseGeocodeAlwaysAnswers(t *testing.T) {
	// Mid-ocean point: Nominatim-style services still return the nearest
	// populated place.
	pl, ok := svc.ReverseGeocode(geo.Point{Lat: 0, Lon: -30})
	if !ok {
		t.Fatal("faultless service failed a lookup")
	}
	if pl.CityID < 0 || pl.CityID >= len(tw.Cities) {
		t.Fatalf("invalid city %d", pl.CityID)
	}
}

func TestReverseGeocodeCountsQueries(t *testing.T) {
	s := NewService(tw)
	s.ReverseGeocode(geo.Point{Lat: 48, Lon: 2})
	s.ReverseGeocode(geo.Point{Lat: 40, Lon: -3})
	rg, poi := s.Stats()
	if rg != 2 || poi != 0 {
		t.Errorf("stats = %d, %d", rg, poi)
	}
	s.ResetStats()
	if rg, _ := s.Stats(); rg != 0 {
		t.Error("reset failed")
	}
}

func TestNearestCityIsActuallyNearest(t *testing.T) {
	probes := []geo.Point{
		{Lat: 50, Lon: 10}, {Lat: -20, Lon: 25}, {Lat: 40, Lon: -100},
		{Lat: 35, Lon: 139}, {Lat: -33, Lon: -70},
	}
	for _, p := range probes {
		got := svc.nearestCity(p)
		best := 0
		for i := range tw.Cities {
			if geo.Distance(p, tw.Cities[i].Loc) < geo.Distance(p, tw.Cities[best].Loc) {
				best = i
			}
		}
		if got.ID != best {
			t.Errorf("nearestCity(%v) = %d (%.0f km), want %d (%.0f km)", p,
				got.ID, geo.Distance(p, got.Loc),
				best, geo.Distance(p, tw.Cities[best].Loc))
		}
	}
}

// TestNearestCityMatchesLinearScan holds nearestCity to a scan of every
// city (the lowest ID on a tie) on 200k points per world: half within
// 150 km of a city, half uniform over the sphere, plus the poles and the
// antimeridian.
func TestNearestCityMatchesLinearScan(t *testing.T) {
	worlds := []*world.World{tw}
	points := 200_000
	if testing.Short() {
		points = 20_000
	} else {
		worlds = append(worlds, world.Generate(world.MediumConfig()), world.Generate(world.DefaultConfig()))
	}
	for _, w := range worlds {
		s := NewService(w)
		trig := make([]geo.Trig, len(w.Cities))
		unit := make([]geo.Unit, len(w.Cities))
		for i, c := range w.Cities {
			trig[i] = geo.MakeTrig(c.Loc)
			unit[i] = trig[i].Unit()
		}
		rng := rand.New(rand.NewSource(int64(len(w.Cities))))
		pts := []geo.Point{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}, {Lat: 0, Lon: 180}, {Lat: 0, Lon: -180},
			{Lat: 45, Lon: 179.99}, {Lat: -45, Lon: -179.99}}
		for len(pts) < points {
			if len(pts)%2 == 0 {
				c := &w.Cities[rng.Intn(len(w.Cities))]
				pts = append(pts, geo.Destination(c.Loc, 360*rng.Float64(), 150*rng.Float64()))
			} else {
				pts = append(pts, geo.Point{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: 360*rng.Float64() - 180})
			}
		}
		wrong := make([]int, len(pts))
		par.For(len(pts), func(i int) {
			pt := geo.MakeTrig(pts[i])
			pu := pt.Unit()
			best, bestD := -1, math.Inf(1)
			for id := range trig {
				if geo.ChordLowerBoundKm(pu, unit[id]) > bestD {
					continue // never below TrigDistance: this city cannot win
				}
				if d := geo.TrigDistance(pt, trig[id]); d < bestD {
					best, bestD = id, d
				}
			}
			wrong[i] = -1
			if got := s.nearestCity(pts[i]); got.ID != best {
				wrong[i] = got.ID
			}
		})
		bad := 0
		for i, got := range wrong {
			if got < 0 {
				continue
			}
			if bad++; bad <= 5 {
				t.Errorf("%d cities: nearestCity(%v) = %d at %.3f km, scan finds a city at %.3f km", len(w.Cities), pts[i],
					got, geo.Distance(pts[i], w.Cities[got].Loc), nearestKm(w, pts[i]))
			}
		}
		if bad > 0 {
			t.Errorf("%d cities: %d of %d points resolve to a city that is not the nearest", len(w.Cities), bad, len(pts))
		}
	}
}

// TestNearestCityAntimeridianAndTies pins the two cases random points
// almost never reach: a nearest city across ±180° from the query, and two
// cities at exactly the same distance, where the lower ID must win although
// the ring search meets the higher one first.
func TestNearestCityAntimeridianAndTies(t *testing.T) {
	w := &world.World{Cities: []world.City{
		{ID: 0, Loc: geo.Point{Lat: 1, Lon: -1}},
		{ID: 1, Loc: geo.Point{Lat: 1, Lon: 1}},
		{ID: 2, Loc: geo.Point{Lat: 10, Lon: 179.5}},
		{ID: 3, Loc: geo.Point{Lat: 10, Lon: -179.9}},
	}}
	s := NewService(w)
	for _, c := range []struct {
		p    geo.Point
		want int
	}{
		{geo.Point{Lat: 1, Lon: 0}, 0},
		{geo.Point{Lat: 10, Lon: 179.9}, 3},
		{geo.Point{Lat: 10, Lon: -179.5}, 3},
		{geo.Point{Lat: 10, Lon: 179.6}, 2},
	} {
		if got := s.nearestCity(c.p).ID; got != c.want {
			t.Errorf("nearestCity(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func nearestKm(w *world.World, p geo.Point) float64 {
	best := math.Inf(1)
	for i := range w.Cities {
		best = min(best, geo.Distance(p, w.Cities[i].Loc))
	}
	return best
}

func TestPOIsDeterministic(t *testing.T) {
	a, _ := svc.POIsInZip(0, 1)
	b, _ := svc.POIsInZip(0, 1)
	if len(a) != len(b) {
		t.Fatal("nondeterministic POI count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic POI")
		}
	}
}

func TestPOIsHaveCorrectZip(t *testing.T) {
	city := &tw.Cities[1]
	for zone := 0; zone < city.NumZones(); zone++ {
		pois, _ := svc.POIsInZip(city.ID, zone)
		for _, poi := range pois {
			if poi.Zip != city.Zip(zone) {
				t.Fatalf("POI zip %d, want %d", poi.Zip, city.Zip(zone))
			}
			if poi.CityID != city.ID || poi.Zone != zone {
				t.Fatal("POI zone identity wrong")
			}
		}
	}
}

func TestPOIsScaleWithPopulation(t *testing.T) {
	big, small := 0, 0
	var bigCity, smallCity *world.City
	for i := range tw.Cities {
		c := &tw.Cities[i]
		if bigCity == nil || c.Population > bigCity.Population {
			bigCity = c
		}
		if smallCity == nil || c.Population < smallCity.Population {
			smallCity = c
		}
	}
	for zone := 0; zone < bigCity.NumZones(); zone++ {
		pois, _ := svc.POIsInZip(bigCity.ID, zone)
		big += len(pois)
	}
	for zone := 0; zone < smallCity.NumZones(); zone++ {
		pois, _ := svc.POIsInZip(smallCity.ID, zone)
		small += len(pois)
	}
	if big <= small {
		t.Errorf("big city (%d POIs) should outnumber small city (%d POIs)", big, small)
	}
}

func TestPOIsNearTheirZone(t *testing.T) {
	city := &tw.Cities[0]
	for zone := 0; zone < city.NumZones(); zone++ {
		center := city.ZoneCenter(zone)
		pois, _ := svc.POIsInZip(city.ID, zone)
		for _, poi := range pois {
			if d := geo.Distance(poi.Loc, center); d > city.RadiusKm {
				t.Fatalf("POI %.1f km from its zone centre", d)
			}
		}
	}
}

func TestPOIsInvalidZone(t *testing.T) {
	if pois, ok := svc.POIsInZip(0, -1); pois != nil || !ok {
		t.Error("negative zone should yield nil")
	}
	if pois, ok := svc.POIsInZip(0, 999); pois != nil || !ok {
		t.Error("out-of-range zone should yield nil")
	}
}

func TestPOICapRespected(t *testing.T) {
	for i := range tw.Cities {
		for zone := 0; zone < tw.Cities[i].NumZones(); zone++ {
			pois, _ := svc.POIsInZip(i, zone)
			if n := len(pois); n > tw.Cfg.MaxPOIsPerZone {
				t.Fatalf("zone has %d POIs, cap is %d", n, tw.Cfg.MaxPOIsPerZone)
			}
		}
	}
}
