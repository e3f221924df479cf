package geo

import "slices"

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
// The zero Region (no circles) represents the whole Earth. Production code
// reduces and samples constraints with Sampler; Region, whose reduction
// tests every circle with the haversine, is the reference the Sampler and
// its callers' tests compare against, and the cbg package's plain API.
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
	var red Region
	tight, ok := r.Tightest()
	if !ok {
		return red
	}
	for _, c := range r.Circles {
		if c == tight || !c.ContainsCircle(tight) {
			red.Add(c)
		}
	}
	slices.SortFunc(red.Circles, func(a, b Circle) int {
		return byRadius(a.RadiusKm, b.RadiusKm)
	})
	return red
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
