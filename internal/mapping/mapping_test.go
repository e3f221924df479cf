package mapping

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
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
		got, _ := svc.nearestCity(p)
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
// antimeridian. The distance it returns must be geo.Distance(city, p)
// bit for bit, and ZoneAt over it must be ZoneOf.
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
		var badDist atomic.Int64
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
			got, d := s.nearestCity(pts[i])
			if got.ID != best {
				wrong[i] = got.ID
			}
			if math.Float64bits(d) != math.Float64bits(geo.Distance(got.Loc, pts[i])) ||
				got.ZoneAt(pts[i], d) != got.ZoneOf(pts[i]) {
				badDist.Add(1)
			}
		})
		if n := badDist.Load(); n > 0 {
			t.Errorf("%d cities: %d of %d points get a distance that is not geo.Distance's, or a zone that is not ZoneOf's",
				len(w.Cities), n, len(pts))
		}
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
		if got, _ := s.nearestCity(c.p); got.ID != c.want {
			t.Errorf("nearestCity(%v) = %d, want %d", c.p, got.ID, c.want)
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

// TestPOILocIsEagerDestination: for every Tiny POI, Loc is the
// Destination POIsInZip used to place it eagerly, replayed here from the
// zone's stream (bearing, distance, then the website flag, per POI).
func TestPOILocIsEagerDestination(t *testing.T) {
	cfg := tw.Cfg
	n := 0
	for ci := range tw.Cities {
		city := &tw.Cities[ci]
		for zone := 0; zone < city.NumZones(); zone++ {
			pois, ok := svc.POIsInZip(ci, zone)
			if !ok {
				t.Fatal("faultless service failed")
			}
			st := rhash.New(cfg.Seed, rhash.HashString("poi"), uint64(ci), uint64(zone))
			st.Range(0.5, 1.5) // the POI count's draw
			zoneRadius := max(city.RadiusKm/(cityRingsApprox+1), 0.8)
			for _, poi := range pois {
				want := geo.Destination(city.ZoneCenter(zone), st.Range(0, 360), zoneRadius*math.Sqrt(st.Float64()))
				if hasSite := st.Bool(cfg.POIWebsiteFrac); hasSite != poi.HasWebsite {
					t.Fatalf("POI %x: website flag %v, replay %v", poi.Key, poi.HasWebsite, hasSite)
				}
				if got := poi.Loc(); got != want {
					t.Fatalf("POI %x: Loc() = %v, eager Destination %v", poi.Key, got, want)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no POIs")
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
			if d := geo.Distance(poi.Loc(), center); d > city.RadiusKm {
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
	for _, city := range []int{-1, len(tw.Cities), math.MaxInt} {
		if pois, ok := svc.POIsInZip(city, 0); pois != nil || !ok {
			t.Errorf("unknown city %d should yield nil, true", city)
		}
	}
}

// TestReverseGeocodeNonFinite: a coordinate no city has a distance to is
// a failed query, not a panic; the fault counter does not move.
func TestReverseGeocodeNonFinite(t *testing.T) {
	s := NewService(tw)
	for _, p := range []geo.Point{
		{Lat: math.NaN(), Lon: 0}, {Lat: 0, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: 0}, {Lat: 0, Lon: math.Inf(-1)},
		{Lat: math.MaxFloat64, Lon: 0}, {Lat: 0, Lon: -math.MaxFloat64},
	} {
		if pl, ok := s.ReverseGeocode(p); ok || pl != (Place{}) {
			t.Errorf("ReverseGeocode(%v) = %+v, %v; want the zero Place, false", p, pl, ok)
		}
	}
	if s.LookupFailures() != 0 {
		t.Errorf("non-finite points counted %d fault-layer failures", s.LookupFailures())
	}
}

// FuzzReverseGeocode: any pair of float64s reverse-geocodes to a city of
// the world and one of its zones, or fails with ok=false; it never panics.
func FuzzReverseGeocode(f *testing.F) {
	for _, p := range [][2]float64{{48.85, 2.35}, {90, 0}, {-90, 180}, {0, -180}, {1e300, 1e-300},
		{math.NaN(), 0}, {0, math.Inf(1)}, {math.MaxFloat64, 1}, {-1000, 725}} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, lat, lon float64) {
		pl, ok := svc.ReverseGeocode(geo.Point{Lat: lat, Lon: lon})
		if !ok {
			if pl != (Place{}) {
				t.Fatalf("failed query returned %+v", pl)
			}
			return
		}
		if pl.CityID < 0 || pl.CityID >= len(tw.Cities) {
			t.Fatalf("(%v, %v): city %d of %d", lat, lon, pl.CityID, len(tw.Cities))
		}
		c := &tw.Cities[pl.CityID]
		if pl.Zone < 0 || pl.Zone >= c.NumZones() || pl.Zip != c.Zip(pl.Zone) {
			t.Fatalf("(%v, %v): zone %d zip %d in city %d of %d zones", lat, lon, pl.Zone, pl.Zip, pl.CityID, c.NumZones())
		}
	})
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
