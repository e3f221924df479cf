// Package geo provides the spherical-geometry primitives used by every
// latency-based geolocation technique in this repository: great-circle
// distance, destination points, centroids, and the constraint disks and
// region intersections at the heart of Constraint-Based Geolocation (CBG).
//
// All coordinates are expressed in decimal degrees on a spherical Earth of
// radius EarthRadiusKm. Distances are kilometres, delays are milliseconds.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for all great-circle math.
const EarthRadiusKm = 6371.0

// SpeedOfLightKmPerMs is the speed of light in vacuum, in km per millisecond.
const SpeedOfLightKmPerMs = 299.792458

// TwoThirdsC is the classic CBG "speed of the Internet": 2/3 of the speed of
// light (signal propagation speed in optical fibre), in km/ms. It is the
// conservative constant used by Gueye et al. and by the million scale paper.
const TwoThirdsC = SpeedOfLightKmPerMs * 2 / 3

// FourNinthsC is the less conservative speed constant used by the street
// level paper (Wang et al., NSDI 2011), in km/ms.
const FourNinthsC = SpeedOfLightKmPerMs * 4 / 9

// Point is a location on Earth in decimal degrees.
type Point struct {
	Lat float64 // latitude, -90..90
	Lon float64 // longitude, -180..180
}

// String renders the point as "lat,lon" with five decimals (~1 m precision).
func (p Point) String() string {
	return fmt.Sprintf("%.5f,%.5f", p.Lat, p.Lon)
}

// Valid reports whether the point has in-range latitude and longitude.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Distance returns the great-circle (haversine) distance between a and b in
// kilometres.
func Distance(a, b Point) float64 {
	lat1, lon1 := deg2rad(a.Lat), deg2rad(a.Lon)
	lat2, lon2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dlat := lat2 - lat1
	dlon := lon2 - lon1
	sl, sn := math.Sin(dlat/2), math.Sin(dlon/2)
	s := sl*sl + math.Cos(lat1)*math.Cos(lat2)*sn*sn
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(s))
}

// Destination returns the point reached by travelling distKm kilometres from
// p along the initial bearing bearingDeg (degrees clockwise from north).
func Destination(p Point, bearingDeg, distKm float64) Point {
	lat1 := deg2rad(p.Lat)
	brng := deg2rad(bearingDeg)
	ad := distKm / EarthRadiusKm // angular distance

	// Each sine and cosine is taken once: gc does not merge repeated calls.
	return destination(deg2rad(p.Lon), math.Sin(lat1), math.Cos(lat1),
		math.Sin(ad), math.Cos(ad), math.Sin(brng), math.Cos(brng))
}

// destination is Destination's expression tree over the sines and
// cosines it takes of the start latitude, the angular distance and the
// bearing. Fan feeds it cached ones, so its points are Destination's bit
// for bit.
func destination(lon1, sinLat1, cosLat1, sinAd, cosAd, sinB, cosB float64) Point {
	lat2 := math.Asin(sinLat1*cosAd + cosLat1*sinAd*cosB)
	lon2 := lon1 + math.Atan2(sinB*sinAd*cosLat1, cosAd-sinLat1*math.Sin(lat2))

	lon2d := rad2deg(lon2)
	// Normalize longitude to -180..180.
	for lon2d > 180 {
		lon2d -= 360
	}
	for lon2d < -180 {
		lon2d += 360
	}
	return Point{Lat: rad2deg(lat2), Lon: lon2d}
}

// Fan is Destination at n evenly spaced bearings, 360·i/n degrees for i
// in [0, n), with each sine and cosine taken once where Destination takes
// it per call: the bearings' when the fan is made, the centre's in
// Around, the distance's in At. Point(i) of NewFan(n).Around(c).At(d) is
// Destination(c, 360·float64(i)/float64(n), d) bit for bit. A Fan is a
// value: Around and At return copies sharing the bearing table, so one
// table serves any number of goroutines.
type Fan struct {
	sinB, cosB []float64

	lon1, sinLat1, cosLat1 float64 // the centre's, set by Around
	sinAd, cosAd           float64 // the distance's, set by At
}

// NewFan returns the fan of n bearings; n ≤ 0 gives the empty fan.
func NewFan(n int) Fan {
	n = max(n, 0)
	f := Fan{sinB: make([]float64, n), cosB: make([]float64, n)}
	for i := range n {
		brng := deg2rad(360 * float64(i) / float64(n))
		f.sinB[i], f.cosB[i] = math.Sin(brng), math.Cos(brng)
	}
	return f
}

// Len returns the number of bearings.
func (f Fan) Len() int { return len(f.sinB) }

// Around returns the fan centred on p.
func (f Fan) Around(p Point) Fan {
	lat1 := deg2rad(p.Lat)
	f.lon1, f.sinLat1, f.cosLat1 = deg2rad(p.Lon), math.Sin(lat1), math.Cos(lat1)
	return f
}

// At returns the fan reaching distKm kilometres from its centre.
func (f Fan) At(distKm float64) Fan {
	ad := distKm / EarthRadiusKm
	f.sinAd, f.cosAd = math.Sin(ad), math.Cos(ad)
	return f
}

// Point returns the point at bearing i.
func (f Fan) Point(i int) Point {
	return destination(f.lon1, f.sinLat1, f.cosLat1, f.sinAd, f.cosAd, f.sinB[i], f.cosB[i])
}

// InitialBearing returns the initial bearing (degrees clockwise from north,
// in [0,360)) of the great-circle path from a to b.
func InitialBearing(a, b Point) float64 {
	lat1, lat2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dlon := deg2rad(b.Lon - a.Lon)
	y := math.Sin(dlon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dlon)
	brng := rad2deg(math.Atan2(y, x))
	if brng < 0 {
		brng += 360
	}
	return brng
}

// Centroid returns the spherical centroid (3-D vector mean) of the points.
// It returns the zero Point and false when pts is empty or the points cancel
// out exactly (antipodal symmetry).
func Centroid(pts []Point) (Point, bool) {
	if len(pts) == 0 {
		return Point{}, false
	}
	var x, y, z float64
	for _, p := range pts {
		lat := deg2rad(p.Lat)
		lon := deg2rad(p.Lon)
		x += math.Cos(lat) * math.Cos(lon)
		y += math.Cos(lat) * math.Sin(lon)
		z += math.Sin(lat)
	}
	n := float64(len(pts))
	x, y, z = x/n, y/n, z/n
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		return Point{}, false
	}
	return Point{
		Lat: rad2deg(math.Asin(z / norm)),
		Lon: rad2deg(math.Atan2(y, x)),
	}, true
}

// RTTToDistanceKm converts a round-trip time (ms) to the maximum possible
// one-way geographic distance (km) a signal could have covered at the given
// propagation speed (km/ms). This is the CBG constraint radius.
func RTTToDistanceKm(rttMs, speedKmPerMs float64) float64 {
	if rttMs < 0 {
		return 0
	}
	return rttMs / 2 * speedKmPerMs
}

// DistanceToRTTMs converts a one-way geographic distance (km) into the
// minimum physically possible round-trip time (ms) at the given propagation
// speed (km/ms). It is the inverse of RTTToDistanceKm.
func DistanceToRTTMs(distKm, speedKmPerMs float64) float64 {
	if distKm < 0 {
		return 0
	}
	return distKm / speedKmPerMs * 2
}
