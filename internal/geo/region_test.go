package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCircleContains(t *testing.T) {
	c := Circle{Center: Point{48.85, 2.35}, RadiusKm: 100}
	if !c.Contains(c.Center) {
		t.Error("circle must contain its own center")
	}
	if !c.Contains(Destination(c.Center, 45, 99)) {
		t.Error("point 99 km away should be inside 100 km circle")
	}
	if c.Contains(Destination(c.Center, 45, 101)) {
		t.Error("point 101 km away should be outside 100 km circle")
	}
}

func TestContainsCircle(t *testing.T) {
	outer := Circle{Center: Point{48, 2}, RadiusKm: 1000}
	inner := Circle{Center: Point{48.5, 2.5}, RadiusKm: 50}
	if !outer.ContainsCircle(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsCircle(outer) {
		t.Error("inner should not contain outer")
	}
}

func TestRegionCentroidSingleCircle(t *testing.T) {
	target := Point{40.4168, -3.7038} // Madrid
	var r Region
	r.Add(Circle{Center: target, RadiusKm: 200})
	c, ok := r.Centroid()
	if !ok {
		t.Fatal("single-circle region must have a centroid")
	}
	if d := Distance(c, target); d > 20 {
		t.Errorf("centroid %.1f km from circle center, want < 20 km", d)
	}
}

func TestRegionCentroidIntersection(t *testing.T) {
	// Target surrounded by three VPs whose constraint radii are only
	// slightly larger than their true distances. The intersection centroid
	// should land near the target.
	target := Point{50.1109, 8.6821} // Frankfurt
	var r Region
	for _, brng := range []float64{0, 120, 240} {
		vp := Destination(target, brng, 300)
		r.Add(Circle{Center: vp, RadiusKm: 320})
	}
	c, ok := r.Centroid()
	if !ok {
		t.Fatal("expected non-empty intersection")
	}
	if d := Distance(c, target); d > 60 {
		t.Errorf("intersection centroid %.1f km from target, want < 60 km", d)
	}
}

func TestRegionEmptyIntersection(t *testing.T) {
	var r Region
	r.Add(Circle{Center: Point{0, 0}, RadiusKm: 100})
	r.Add(Circle{Center: Point{0, 90}, RadiusKm: 100})
	if _, ok := r.Centroid(); ok {
		t.Error("disjoint circles must have no centroid")
	}
}

func TestRegionNoCircles(t *testing.T) {
	var r Region
	if _, ok := r.Centroid(); ok {
		t.Error("unconstrained region must report !ok")
	}
	if _, ok := r.Tightest(); ok {
		t.Error("Tightest on empty region must report !ok")
	}
}

func TestRegionReducedDropsRedundant(t *testing.T) {
	center := Point{48, 2}
	var r Region
	r.Add(Circle{Center: center, RadiusKm: 50})
	// A huge circle centered nearby fully contains the small one: redundant.
	r.Add(Circle{Center: Destination(center, 10, 100), RadiusKm: 5000})
	// A circle that genuinely cuts the small one: kept.
	r.Add(Circle{Center: Destination(center, 90, 60), RadiusKm: 40})
	red := r.Reduced()
	if len(red.Circles) != 2 {
		t.Fatalf("Reduced kept %d circles, want 2", len(red.Circles))
	}
	if red.Circles[0].RadiusKm > red.Circles[1].RadiusKm {
		t.Error("Reduced must sort by ascending radius")
	}
}

func TestRegionCentroidInsideRegion(t *testing.T) {
	// Property: whenever a centroid exists it must satisfy (almost) all
	// constraints. Allow a small tolerance because the centroid of a lens can
	// sit slightly outside on strongly curved boundaries.
	f := func(la, lo, b1, b2 uint8) bool {
		base := randomPoint(float64(la), float64(lo))
		if math.Abs(base.Lat) > 70 {
			return true
		}
		var r Region
		r.Add(Circle{Center: base, RadiusKm: 500})
		r.Add(Circle{Center: Destination(base, float64(b1)*360/256, 300), RadiusKm: 400})
		r.Add(Circle{Center: Destination(base, float64(b2)*360/256, 200), RadiusKm: 350})
		c, ok := r.Centroid()
		if !ok {
			return true // empty intersection is legitimate
		}
		for _, cc := range r.Circles {
			if Distance(cc.Center, c) > cc.RadiusKm*1.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplePointsAllInsideRegion(t *testing.T) {
	target := Point{52.52, 13.405}
	var r Region
	r.Add(Circle{Center: Destination(target, 30, 100), RadiusKm: 120})
	r.Add(Circle{Center: Destination(target, 200, 80), RadiusKm: 110})
	pts := r.SamplePoints(8, 12)
	if len(pts) == 0 {
		t.Fatal("expected sample points")
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("sample point %v outside region", p)
		}
	}
}
