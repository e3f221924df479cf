// Package mapping simulates the mapping services the street level
// replication queries (§4.2.4): a Nominatim-like reverse geocoder (point →
// postal code) and an Overpass-like amenity query (postal code → points of
// interest with websites). The service counts queries and models the
// ~8 queries/second rate limit the paper observed, which dominates the
// technique's time to geolocate (§5.2.5).
package mapping

import (
	"math"
	"slices"
	"sync/atomic"

	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// Place is a reverse-geocoding result.
type Place struct {
	CityID int
	Zone   int
	Zip    int
}

// POI is a point of interest returned by the amenity query.
type POI struct {
	// Key is the POI's stable identity; the website model derives all site
	// attributes from it.
	Key uint64
	// CityID and Zone locate the POI in the zoning grid; Zip is its postal
	// code.
	CityID int
	Zone   int
	Zip    int
	// HasWebsite reports whether the amenity lists a website.
	HasWebsite bool

	// The zone centre, bearing and distance Loc places the POI with.
	center      geo.Point
	brg, distKm float64
}

// Loc returns the POI's physical location. It is computed on each call:
// the street-level sweep asks it of the few POIs whose sites pass the
// locally-hosted checks, out of every POI it mines.
func (p POI) Loc() geo.Point { return geo.Destination(p.center, p.brg, p.distKm) }

// Service answers reverse-geocoding and POI queries over one world.
// Queries are deterministic and counted; the service is safe for
// concurrent use.
type Service struct {
	W *world.World
	// Faults, when non-nil, injects mapping-service failures: with
	// LookupFailProb each query (keyed by its own identity, so re-asking
	// fails identically) returns ok=false. Nil injects nothing.
	Faults *faults.Profile

	reverseGeocodes atomic.Int64
	poiQueries      atomic.Int64
	lookupFailures  atomic.Int64

	// City IDs bucketed by 2-degree cell, ascending within a cell: cell
	// i (cellIndex) holds cellIDs[cellOff[i]:cellOff[i+1]].
	cellOff  []int32
	cellIDs  []int32
	cityTrig []geo.Trig // per city ID, for nearestCity's distances
	cityUnit []geo.Unit // per city ID, for nearestCity's chord screen
}

// Query-kind discriminators for lookup-failure draws, so a reverse
// geocode and a POI query with colliding key material fail independently.
const (
	lookupKindReverse uint64 = 1
	lookupKindPOIs    uint64 = 2
)

type cellKey struct{ lat, lon int }

// lonCells is the number of 2-degree longitude cells; cell indices run
// from −lonCells/2 to lonCells/2−1 and wrap at ±180°. latCells is the
// number of 2-degree latitude cells: −45 to 45, the last holding only
// the north pole.
const (
	lonCells = 180
	latCells = 91
)

// cellIndex returns the grid index of cell (lat, lon), and false for a
// latitude index off the globe.
func cellIndex(lat, lon int) (int, bool) {
	row := lat + latCells/2
	if row < 0 || row >= latCells {
		return 0, false
	}
	return row*lonCells + lon + lonCells/2, true
}

func keyOf(p geo.Point) cellKey {
	return cellKey{lat: int(math.Floor(p.Lat / 2)), lon: wrapLonCell(int(math.Floor(p.Lon / 2)))}
}

// wrapLonCell maps a longitude cell index onto [−lonCells/2, lonCells/2).
func wrapLonCell(i int) int {
	return ((i+lonCells/2)%lonCells+lonCells)%lonCells - lonCells/2
}

// NewService builds a mapping service with a spatial index over the cities.
func NewService(w *world.World) *Service {
	s := &Service{W: w, cellOff: make([]int32, latCells*lonCells+1), cellIDs: make([]int32, len(w.Cities)),
		cityTrig: make([]geo.Trig, len(w.Cities)), cityUnit: make([]geo.Unit, len(w.Cities))}
	// A counting sort of the cities by cell, stable in city order.
	cellOf := make([]int, len(w.Cities))
	for i, c := range w.Cities {
		s.cityTrig[c.ID] = geo.MakeTrig(c.Loc)
		s.cityUnit[c.ID] = s.cityTrig[c.ID].Unit()
		k := keyOf(c.Loc)
		cellOf[i], _ = cellIndex(k.lat, k.lon)
		s.cellOff[cellOf[i]+1]++
	}
	for i := 1; i < len(s.cellOff); i++ {
		s.cellOff[i] += s.cellOff[i-1]
	}
	next := slices.Clone(s.cellOff)
	for i, c := range w.Cities {
		s.cellIDs[next[cellOf[i]]] = int32(c.ID)
		next[cellOf[i]]++
	}
	return s
}

// cell returns the IDs of the cities in cell (lat, lon).
func (s *Service) cell(lat, lon int) []int32 {
	i, ok := cellIndex(lat, lon)
	if !ok {
		return nil
	}
	return s.cellIDs[s.cellOff[i]:s.cellOff[i+1]]
}

// Stats returns the query counters (reverse geocodes, POI queries).
func (s *Service) Stats() (int64, int64) {
	return s.reverseGeocodes.Load(), s.poiQueries.Load()
}

// LookupFailures returns how many queries the fault layer failed.
func (s *Service) LookupFailures() int64 { return s.lookupFailures.Load() }

// ResetStats zeroes the query counters.
func (s *Service) ResetStats() {
	s.reverseGeocodes.Store(0)
	s.poiQueries.Store(0)
	s.lookupFailures.Store(0)
}

// ReverseGeocode maps a point to the postal code of the nearest city zone,
// like Nominatim: every successful query returns something, however rural
// the point. ok is false when the fault layer fails the query (timeout,
// 5xx); the failure is persistent per queried point. ok is also false for
// a point no city has a distance to: a NaN or infinite coordinate, or one
// too large to turn into radians.
func (s *Service) ReverseGeocode(p geo.Point) (Place, bool) {
	s.reverseGeocodes.Add(1)
	if s.Faults.LookupFailed(s.W.Cfg.Seed, lookupKindReverse,
		math.Float64bits(p.Lat), math.Float64bits(p.Lon)) {
		s.lookupFailures.Add(1)
		return Place{}, false
	}
	city, d := s.nearestCity(p)
	if city == nil {
		return Place{}, false
	}
	zone := city.ZoneAt(p, d)
	return Place{CityID: city.ID, Zone: zone, Zip: city.Zip(zone)}, true
}

// maxRing is the last ring of cells nearestCity searches before it scans
// every city.
const maxRing = 4

// nearestCity returns the closest city to p, the lowest ID on a tie. It
// searches rings of 2-degree cells outward from p's own, and stops once
// the best distance is below ringBoundKm, under which no city outside the
// searched cells can lie; a point that no ring up to maxRing settles gets
// a scan of every city. It also returns the winning distance, which is
// geo.Distance(city.Loc, p) bit for bit: TrigDistance is Distance, and
// symmetric. The city is nil when no distance is finite, as for a
// non-finite point.
func (s *Service) nearestCity(p geo.Point) (*world.City, float64) {
	base := keyOf(p)
	pt := geo.MakeTrig(p)
	pu := pt.Unit()
	bestID, bestD := -1, math.Inf(1)
	consider := func(id int32) {
		if geo.ChordLowerBoundKm(pu, s.cityUnit[id]) > bestD {
			return // farther than the best: neither nearer nor a tie
		}
		d := geo.TrigDistance(pt, s.cityTrig[id])
		if d < bestD || (d == bestD && int(id) < bestID) {
			bestID, bestD = int(id), d
		}
	}
	for radius := 0; radius <= maxRing; radius++ {
		for dl := -radius; dl <= radius; dl++ {
			for dn := -radius; dn <= radius; dn++ {
				if maxAbs(dl, dn) != radius {
					continue // only the ring perimeter at this radius
				}
				for _, id := range s.cell(base.lat+dl, wrapLonCell(base.lon+dn)) {
					consider(id)
				}
			}
		}
		if bestD < ringBoundKm(p, pt.CosLat, radius) {
			return &s.W.Cities[bestID], bestD
		}
	}
	bestID, bestD = -1, math.Inf(1)
	for i := range s.W.Cities {
		consider(int32(i))
	}
	if bestID < 0 {
		return nil, bestD
	}
	return &s.W.Cities[bestID], bestD
}

// ringBoundKm is a lower bound on the distance from p to any point outside
// the cells within radius rings of p's own, shaved for rounding. Such a
// point lies beyond the searched band of latitude, and then it is at least
// the latitude gap away along any path, or beyond the searched band of
// longitude, and then it is at least asin(cos φ · sin Δλ) away — the
// distance from p to the band's nearer edge meridian, at the longitude
// offset Δλ that holds at any latitude. A band edge past a pole bounds
// nothing.
func ringBoundKm(p geo.Point, cosLat float64, radius int) float64 {
	const kmPerDeg = geo.EarthRadiusKm * math.Pi / 180
	r := float64(radius)
	cell := math.Floor(p.Lat / 2)
	bound := math.Inf(1)
	if south := 2 * (cell - r); south > -90 {
		bound = (p.Lat - south) * kmPerDeg
	}
	if north := 2 * (cell + r + 1); north < 90 {
		bound = min(bound, (north-p.Lat)*kmPerDeg)
	}
	in := p.Lon - 2*math.Floor(p.Lon/2) // p's offset inside its cell, [0, 2)
	dLon := min(in+2*r, 2*(r+1)-in)
	bound = min(bound, geo.EarthRadiusKm*math.Asin(cosLat*math.Sin(dLon*math.Pi/180)))
	return bound*(1-1e-9) - 1e-6
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// POIsInZip returns every point of interest registered in the given city
// zone (one Overpass query). POIs are generated deterministically from the
// world seed, so repeated queries return identical results without the
// world storing millions of POI records. ok is false when the fault layer
// fails the query; an unknown city or an out-of-range zone is a successful
// empty answer, nil. It is AppendPOIsInZip into a fresh slice.
func (s *Service) POIsInZip(cityID, zone int) ([]POI, bool) {
	return s.AppendPOIsInZip(nil, cityID, zone)
}

// AppendPOIsInZip is POIsInZip appending the zone's POIs to dst, which it
// returns: a caller that queries zip after zip into one buffer allocates
// nothing once the buffer holds the largest zone. A failed query, an
// unknown city or an out-of-range zone appends nothing.
func (s *Service) AppendPOIsInZip(dst []POI, cityID, zone int) ([]POI, bool) {
	s.poiQueries.Add(1)
	if s.Faults.LookupFailed(s.W.Cfg.Seed, lookupKindPOIs, uint64(cityID), uint64(zone)) {
		s.lookupFailures.Add(1)
		return dst, false
	}
	w := s.W
	if cityID < 0 || cityID >= len(w.Cities) {
		return dst, true
	}
	city := &w.Cities[cityID]
	if zone < 0 || zone >= city.NumZones() {
		return dst, true
	}
	cfg := w.Cfg

	zonePop := city.Population / float64(city.NumZones())
	st := rhash.New(cfg.Seed, rhash.HashString("poi"), uint64(cityID), uint64(zone))
	n := cfg.POIBasePerZone + int(cfg.POIDensityPerKPop*zonePop/1000*st.Range(0.5, 1.5))
	if n > cfg.MaxPOIsPerZone {
		n = cfg.MaxPOIsPerZone
	}
	zoneCenter := city.ZoneCenter(zone)
	zoneRadius := city.RadiusKm / (cityRingsApprox + 1)
	if zoneRadius < 0.8 {
		zoneRadius = 0.8
	}
	keys := rhash.Hash(cfg.Seed, rhash.HashString("poikey"), uint64(cityID), uint64(zone))
	zip := city.Zip(zone)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		brg := st.Range(0, 360)
		dist := zoneRadius * math.Sqrt(st.Float64())
		dst = append(dst, POI{
			Key:        rhash.Extend(keys, uint64(i)),
			CityID:     cityID,
			Zone:       zone,
			Zip:        zip,
			HasWebsite: st.Bool(cfg.POIWebsiteFrac),
			center:     zoneCenter,
			brg:        brg,
			distKm:     dist,
		})
	}
	return dst, true
}

// cityRingsApprox mirrors the ring count of the world's zoning grid for
// zone-radius estimation (the grid has 4 rings plus a centre).
const cityRingsApprox = 4
