package geo

import (
	"math"
	"slices"
)

// Circle is a CBG constraint: the target lies within RadiusKm of Center.
type Circle struct {
	Center   Point
	RadiusKm float64
}

// Contains reports whether p lies inside the circle (boundary inclusive).
func (c Circle) Contains(p Point) bool {
	return Distance(c.Center, p) <= c.RadiusKm
}

// ContainsCircle reports whether the whole of other lies inside c, which
// makes c redundant as an intersection constraint whenever other is present.
func (c Circle) ContainsCircle(other Circle) bool {
	return Distance(c.Center, other.Center)+other.RadiusKm <= c.RadiusKm
}

// Region is an intersection of constraint circles, as constructed by CBG.
// The zero Region (no circles) represents the whole Earth.
type Region struct {
	Circles []Circle
}

// Add appends a constraint circle to the region.
func (r *Region) Add(c Circle) { r.Circles = append(r.Circles, c) }

// Contains reports whether p satisfies every constraint in the region.
func (r *Region) Contains(p Point) bool {
	for _, c := range r.Circles {
		if !c.Contains(p) {
			return false
		}
	}
	return true
}

// Tightest returns the circle with the smallest radius, and false when the
// region has no circles.
func (r *Region) Tightest() (Circle, bool) {
	if len(r.Circles) == 0 {
		return Circle{}, false
	}
	best := r.Circles[0]
	for _, c := range r.Circles[1:] {
		if c.RadiusKm < best.RadiusKm {
			best = c
		}
	}
	return best, true
}

// Reduced returns an equivalent region with redundant circles removed: any
// circle that fully contains the tightest circle cannot shrink the
// intersection and is dropped. The result is sorted by ascending radius.
// Reduction is what keeps centroid estimation cheap even with 10k vantage
// points: in practice only a handful of constraints survive.
func (r *Region) Reduced() Region {
	tight, ok := r.Tightest()
	if !ok {
		return Region{}
	}
	out := Region{Circles: make([]Circle, 0, 8)}
	for _, c := range r.Circles {
		if c == tight || !c.ContainsCircle(tight) {
			out.Circles = append(out.Circles, c)
		}
	}
	slices.SortFunc(out.Circles, func(a, b Circle) int {
		return byRadius(a.RadiusKm, b.RadiusKm)
	})
	return out
}

// byRadius is the reduction's ascending-radius comparator. The pdqsort
// behind slices.SortFunc is generated from the same template as sort.Slice's
// and only ever asks whether cmp < 0, which here is exactly a < b, so it
// makes sort.Slice's less/swap sequence — equal radii tie-break the same —
// without boxing the slice or building a reflect swapper. A NaN radius is
// "not less" both ways, as it was under < (cmp.Compare would order it
// first instead).
func byRadius(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// DefaultSampleRings and DefaultSampleBearings control the polar sampling
// grid used to estimate the centroid of a region intersection.
const (
	DefaultSampleRings    = 16
	DefaultSampleBearings = 24
)

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

// Centroid estimates the centroid of the region intersection by polar-grid
// sampling. ok is false when the region is unconstrained or the constraints
// are mutually inconsistent (empty intersection), which happens in practice
// when the chosen speed-of-Internet constant is too aggressive (the street
// level paper's 4/9c fails for a handful of targets, §5.2.1).
func (r *Region) Centroid() (Point, bool) {
	sm := GetSampler()
	for _, c := range r.Circles {
		sm.Add(c)
	}
	p, ok := sm.Centroid()
	PutSampler(sm)
	return p, ok
}

// AreaKm2 estimates the area of the region intersection (km²) using the same
// polar sampling grid. It returns 0 for an empty or unconstrained region.
func (r *Region) AreaKm2() float64 {
	red := r.Reduced()
	tight, ok := red.Tightest()
	if !ok {
		return 0
	}
	rings, bearings := DefaultSampleRings, DefaultSampleBearings
	inside, total := 0, 0
	for ri := 1; ri <= rings; ri++ {
		rad := tight.RadiusKm * (float64(ri) - 0.5) / float64(rings)
		for bi := 0; bi < bearings; bi++ {
			brng := 360 * float64(bi) / float64(bearings)
			total++
			if red.Contains(Destination(tight.Center, brng, rad)) {
				inside++
			}
		}
	}
	if total == 0 {
		return 0
	}
	// Spherical cap area of the tightest circle.
	h := EarthRadiusKm * (1 - math.Cos(tight.RadiusKm/EarthRadiusKm))
	capArea := 2 * math.Pi * EarthRadiusKm * h
	return capArea * float64(inside) / float64(total)
}
