package geo

import "math"

// The legacy centroid chain, kept as the oracle the Sampler kernel is held
// to: Region.Reduced, then SamplePoints, then Centroid. No production code
// samples a region this way.

// SamplePoints returns points covering the tightest circle of the region on
// a polar grid (rings × bearings, plus the centre), filtered to those inside
// every other constraint. It returns nil when the region has no circles or
// the sampled intersection is empty.
func (r *Region) SamplePoints(rings, bearings int) []Point {
	red := r.Reduced()
	tight, ok := red.Tightest()
	if !ok {
		return nil
	}
	if rings <= 0 {
		rings = DefaultSampleRings
	}
	if bearings <= 0 {
		bearings = DefaultSampleBearings
	}
	pts := make([]Point, 0, rings*bearings+1)
	if red.Contains(tight.Center) {
		pts = append(pts, tight.Center)
	}
	for ri := 1; ri <= rings; ri++ {
		rad := tight.RadiusKm * float64(ri) / float64(rings)
		for bi := 0; bi < bearings; bi++ {
			brng := 360 * float64(bi) / float64(bearings)
			p := Destination(tight.Center, brng, rad)
			if red.Contains(p) {
				pts = append(pts, p)
			}
		}
	}
	if len(pts) == 0 {
		return nil
	}
	return pts
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
