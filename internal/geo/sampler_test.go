package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// legacyRegionCentroid is the pre-sampler implementation of
// Region.Centroid: Reduced → SamplePoints (degree round trip, exact
// haversine Contains) → Centroid. It shares no sampling code with the
// Sampler kernel and stays as its independent oracle — to grid resolution,
// not to the bit: the kernel counts the sample circle's rim in, the chain
// leaves each rim point to a half-ulp.
func legacyRegionCentroid(r *Region) (Point, bool) {
	pts := r.SamplePoints(DefaultSampleRings, DefaultSampleBearings)
	if pts == nil {
		return Point{}, false
	}
	return Centroid(pts)
}

// samplerCentroid runs the kernel on a region's circles in order.
func samplerCentroid(sm *Sampler, r *Region) (Point, bool) {
	sm.Reset()
	for _, c := range r.Circles {
		sm.Add(c)
	}
	return sm.Centroid()
}

// randRegion builds a plausible CBG constraint set: circles whose centers
// all see a common "true" point, radii inflated by random slack, plus the
// occasional redundant giant and exact-duplicate circle.
func randRegion(rng *rand.Rand) Region {
	truth := randPoint(rng)
	var r Region
	n := rng.Intn(12) + 1
	for i := 0; i < n; i++ {
		vp := randPoint(rng)
		d := Distance(vp, truth)
		c := Circle{Center: vp, RadiusKm: d * (1 + rng.Float64())}
		r.Add(c)
		if rng.Intn(8) == 0 {
			r.Add(c) // exact duplicate: Reduced keeps tight-duplicates
		}
	}
	if rng.Intn(4) == 0 {
		r.Add(Circle{Center: randPoint(rng), RadiusKm: 30000}) // redundant
	}
	return r
}

// tiedRegion forces exact radius ties at the minimum (several circles of
// one radius at distinct nearby centers): the sample center is then
// decided by the reduction sort's permutation.
func tiedRegion(rng *rand.Rand) Region {
	var r Region
	n := rng.Intn(6) + 2
	tied := rng.Float64() * 50
	for j := 0; j < n; j++ {
		center := Point{Lat: rng.Float64()*2 - 1, Lon: rng.Float64()*2 - 1}
		radius := tied
		if rng.Intn(2) == 0 {
			radius = tied + rng.Float64()*500
		}
		r.Add(Circle{Center: center, RadiusKm: radius})
	}
	return r
}

func quantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestSamplerSingleCircleIsItsCentre: the grid of a lone circle is
// symmetric about its center and wholly inside it, so the centroid is the
// center. The legacy chain misses by 0.3–1.6 % of the radius (8.1 km for
// the first case): its 24 rim points are in or out by a half-ulp each.
func TestSamplerSingleCircleIsItsCentre(t *testing.T) {
	var sm Sampler
	for _, c := range []Circle{
		{Center: Point{48.85, 2.35}, RadiusKm: 500},
		{Center: Point{0, 0}, RadiusKm: 1},
		{Center: Point{-33.9, 151.2}, RadiusKm: 2500},
		{Center: Point{89.5, 40}, RadiusKm: 300},
		{Center: Point{-89.9, -120}, RadiusKm: 30},
		{Center: Point{12, 179.99}, RadiusKm: 800},
	} {
		sm.Reset()
		sm.Add(c)
		got, ok := sm.Centroid()
		if !ok {
			t.Fatalf("%+v: no centroid", c)
		}
		if d := Distance(got, c.Center); d > 1e-6 {
			t.Errorf("%+v: centroid %v is %.3g km from the center, want <= 1e-6", c, got, d)
		}
	}
}

// unitOf and pointOf convert between degrees and unit vectors for the
// rotation test.
func unitOf(p Point) Unit { return MakeTrig(p).Unit() }

func pointOf(u Unit) Point {
	return Point{
		Lat: rad2deg(math.Atan2(u.Z, math.Hypot(u.X, u.Y))),
		Lon: rad2deg(math.Atan2(u.Y, u.X)),
	}
}

// localFrame returns the unit vector of p with the local north and east
// at p — the frame the sampling grid is laid out in.
func localFrame(p Point) (c, n, e Unit) {
	t := MakeTrig(p)
	sinLat, cosLat := math.Sin(t.LatRad), math.Cos(t.LatRad)
	sinLon, cosLon := math.Sincos(t.LonRad)
	return Unit{cosLat * cosLon, cosLat * sinLon, sinLat},
		Unit{-sinLat * cosLon, -sinLat * sinLon, cosLat},
		Unit{-sinLon, cosLon, 0}
}

func dot(a, b Unit) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// frameRotation returns the rotation of the sphere that carries the local
// frame at from onto the local frame at to.
func frameRotation(from, to Point) func(Point) Point {
	c0, n0, e0 := localFrame(from)
	c1, n1, e1 := localFrame(to)
	return func(p Point) Point {
		u := unitOf(p)
		a, b, g := dot(u, c0), dot(u, n0), dot(u, e0)
		return pointOf(Unit{
			a*c1.X + b*n1.X + g*e1.X,
			a*c1.Y + b*n1.Y + g*e1.Y,
			a*c1.Z + b*n1.Z + g*e1.Z,
		})
	}
}

// angleRad is the angle between two points, accurate near zero.
func angleRad(a, b Point) float64 { return Distance(a, b) / EarthRadiusKm }

// TestSamplerRotationEquivariance: the estimate depends on the constraint
// geometry only, not on where on the sphere it sits. The grid is anchored
// to local north at the sample center, so the rotations under which the
// estimator is exactly equivariant are those that carry that frame onto
// the local frame of the image — one for every destination, poles and the
// antimeridian included. Rotate every circle by it and the centroid must
// rotate with it.
func TestSamplerRotationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	destinations := []Point{{89.99, 10}, {-90, 0}, {0, 180}, {35, -179.999}, {0, 0}}
	var sm Sampler
	checked := 0
	for i := 0; i < 2000; i++ {
		r := randRegion(rng)
		want, ok := samplerCentroid(&sm, &r)
		if !ok {
			continue
		}
		var center Point
		var kept []float64
		sm.Kept(func(c Circle) {
			if kept == nil {
				center = c.Center
			}
			kept = append(kept, c.RadiusKm)
		})
		to := randPoint(rng)
		if i < len(destinations) {
			to = destinations[i]
		}
		rot := frameRotation(center, to)
		var rr Region
		for _, c := range r.Circles {
			rr.Add(Circle{Center: rot(c.Center), RadiusKm: c.RadiusKm})
		}
		got, ok := samplerCentroid(&sm, &rr)
		// The reduction reads haversine distances, which the rotation
		// changes by rounding: a circle within an ulp of swallowing the
		// tight one may survive on one side only. That is the reduction's
		// bit-exactness contract, not this kernel's; skip those.
		var keptRot []float64
		sm.Kept(func(c Circle) { keptRot = append(keptRot, c.RadiusKm) })
		if len(kept) != len(keptRot) {
			continue
		}
		checked++
		if !ok {
			t.Fatalf("region %d: centroid lost under rotation to %v", i, to)
		}
		if a := angleRad(got, rot(want)); a > 1e-9 {
			t.Fatalf("region %d rotated to %v: centroid %v, want %v (%.3g rad apart)", i, to, got, rot(want), a)
		}
	}
	if checked < 1500 {
		t.Fatalf("only %d regions compared", checked)
	}
}

// TestSamplerAntimeridianAndPole places the sample circle across the
// antimeridian, next to a pole and exactly on one, cuts it with a second
// circle, and requires valid coordinates inside both circles, within grid
// resolution of the legacy oracle. The oracle is asked at mid-latitudes —
// the configuration is carried there by the frame rotation and its answer
// carried back — because Destination from an exact pole divides a rounding
// residue by another: the chain the kernel replaced had no answer there.
func TestSamplerAntimeridianAndPole(t *testing.T) {
	var sm Sampler
	for _, tc := range []struct {
		name string
		r    Region
	}{
		{"antimeridian", Region{Circles: []Circle{
			{Center: Point{10, 179.9}, RadiusKm: 300},
			{Center: Point{11, -178.5}, RadiusKm: 320},
		}}},
		{"antimeridian-west", Region{Circles: []Circle{
			{Center: Point{-20, -179.95}, RadiusKm: 150},
			{Center: Point{-20.5, 179.2}, RadiusKm: 170},
		}}},
		{"near-north-pole", Region{Circles: []Circle{
			{Center: Point{89.7, 30}, RadiusKm: 400},
			{Center: Point{87, -150}, RadiusKm: 500},
		}}},
		{"south-pole", Region{Circles: []Circle{
			{Center: Point{-90, 0}, RadiusKm: 250},
			{Center: Point{-88.5, 77}, RadiusKm: 300},
		}}},
	} {
		got, ok := samplerCentroid(&sm, &tc.r)
		if !ok || !got.Valid() {
			t.Fatalf("%s: centroid %v ok=%v", tc.name, got, ok)
		}
		for _, c := range tc.r.Circles {
			if !c.Contains(got) {
				t.Errorf("%s: centroid %v outside %+v", tc.name, got, c)
			}
		}
		tight, mid := tc.r.Circles[0], Point{40, 20}
		there, back := frameRotation(tight.Center, mid), frameRotation(mid, tight.Center)
		var moved Region
		for _, c := range tc.r.Circles {
			moved.Add(Circle{Center: there(c.Center), RadiusKm: c.RadiusKm})
		}
		want, ok := legacyRegionCentroid(&moved)
		if !ok {
			t.Fatalf("%s: legacy chain found no centroid", tc.name)
		}
		if d := Distance(got, back(want)); d > 0.03*tight.RadiusKm {
			t.Errorf("%s: centroid %v is %.1f km from the legacy chain's %v (tight radius %.0f)",
				tc.name, got, d, back(want), tight.RadiusKm)
		}
	}
}

// TestSamplerDegenerateRadii covers the radii at which a chord threshold
// stops being a plain sin²: zero, half the circumference and beyond,
// negative and NaN.
func TestSamplerDegenerateRadii(t *testing.T) {
	paris := Point{48.85, 2.35}
	near := Destination(paris, 70, 30)
	var sm Sampler
	locate := func(cs ...Circle) (Point, bool) {
		return samplerCentroid(&sm, &Region{Circles: cs})
	}

	// Zero radius: every grid point is the center, which is the answer
	// when the other constraints hold it and nothing when they do not.
	if got, ok := locate(Circle{paris, 0}, Circle{near, 50}); !ok || Distance(got, paris) > 1e-6 {
		t.Errorf("zero radius inside its neighbour: %v ok=%v, want its center", got, ok)
	}
	if got, ok := locate(Circle{paris, 0}, Circle{near, 20}); ok {
		t.Errorf("zero radius outside its neighbour: got %v, want no centroid", got)
	}

	// A radius of πR or more is the whole Earth: kept by the reduction
	// when its center is far enough, it must cut nothing.
	alone, _ := locate(Circle{paris, 400})
	for _, r := range []float64{math.Pi * EarthRadiusKm, 20100, 1e9, math.Inf(1)} {
		far := Point{-48, -177}
		if got, ok := locate(Circle{paris, 400}, Circle{far, r}); !ok || got != alone {
			t.Errorf("whole-Earth radius %v: %v ok=%v, want the lone circle's %v", r, got, ok, alone)
		}
	}
	// Just under πR it is a real constraint again: all of the Earth but a
	// cap around the antipode of its center.
	antipode := Point{-paris.Lat, paris.Lon - 180}
	capKm := 15.0
	almost := Circle{antipode, math.Pi*EarthRadiusKm - capKm}
	if got, ok := locate(Circle{Destination(paris, 200, capKm+5), 0}, almost); !ok {
		t.Errorf("5 km outside the excluded cap: got %v ok=%v, want a centroid", got, ok)
	}
	if got, ok := locate(Circle{Destination(paris, 200, capKm-5), 0}, almost); ok {
		t.Errorf("5 km inside the excluded cap: got %v, want no centroid", got)
	}

	// A negative or NaN radius contains nothing — as the sample circle or
	// as a cut.
	for _, r := range []float64{-1, math.Inf(-1), math.NaN()} {
		if got, ok := locate(Circle{paris, r}); ok {
			t.Errorf("lone radius %v: got %v, want no centroid", r, got)
		}
		if got, ok := locate(Circle{paris, r}, Circle{near, 50}); ok {
			t.Errorf("radius %v first: got %v, want no centroid", r, got)
		}
		if got, ok := locate(Circle{near, 50}, Circle{paris, r}); ok {
			t.Errorf("radius %v second: got %v, want no centroid", r, got)
		}
	}
}

// TestSamplerAntipodalCancel: a circle so large that its rings wrap the
// sphere can place its accepted points in exact balance; the vector mean
// then has no direction and there is no centroid. The radius is the root
// of 1 + 24·Σ cos(k·r/16R), found by bisection.
func TestSamplerAntipodalCancel(t *testing.T) {
	resultant := func(r float64) float64 {
		s := 1.0
		for k := 1; k <= DefaultSampleRings; k++ {
			s += DefaultSampleBearings * math.Cos(r*float64(k)/DefaultSampleRings/EarthRadiusKm)
		}
		return s
	}
	lo, hi := 0.7*math.Pi*EarthRadiusKm, math.Pi*EarthRadiusKm
	if resultant(lo) < 0 || resultant(hi) > 0 {
		t.Fatalf("bracket lost: f(%v)=%v f(%v)=%v", lo, resultant(lo), hi, resultant(hi))
	}
	for i := 0; i < 200 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if resultant(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	var sm Sampler
	sm.Add(Circle{Center: Point{20, 30}, RadiusKm: lo})
	if got, ok := sm.Centroid(); ok {
		t.Errorf("balanced grid (r = %v km): got %v, want no centroid", lo, got)
	}
	sm.Reset()
	sm.Add(Circle{Center: Point{20, 30}, RadiusKm: lo - 50})
	if got, ok := sm.Centroid(); !ok || Distance(got, Point{20, 30}) > 1e-6 {
		t.Errorf("50 km short of balance: %v ok=%v, want the center", got, ok)
	}
}

// TestSamplerKeptMatchesReduced: the reduction is the part of the kernel
// that is still bit-exact with the legacy chain. The surviving set and its
// order — and with it the sample center, including among exactly tied
// minimum radii, where the sort's permutation decides — must be
// Region.Reduced's.
func TestSamplerKeptMatchesReduced(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sm Sampler
	for i := 0; i < 4000; i++ {
		r := tiedRegion(rng)
		if i%2 == 1 {
			r = randRegion(rng)
		}
		samplerCentroid(&sm, &r)
		var got []Circle
		sm.Kept(func(c Circle) { got = append(got, c) })
		want := r.Reduced().Circles
		if len(got) != len(want) {
			t.Fatalf("region %d: kept %d circles, Reduced keeps %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("region %d: kept[%d] = %+v, Reduced has %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestSamplerTracksLegacyChain states the agreement between the kernel and
// the legacy chain on random constraint sets as quantiles of their
// distance over the tight radius. They are two discretisations of one
// region: the median gap is the rim rule (the chain drops about half of
// the 24 rim points at random), the tail is thin slivers a handful of grid
// points wide, where one point in or out moves either estimate by a large
// share of the radius and neither is closer to a denser grid. The same
// slivers account for the rare disagreement on whether any point is inside.
func TestSamplerTracksLegacyChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 20000
	if testing.Short() {
		iters = 3000
	}
	var sm Sampler
	var rel []float64
	okDisagree := 0
	for i := 0; i < iters; i++ {
		r := randRegion(rng)
		want, wantOK := legacyRegionCentroid(&r)
		got, gotOK := samplerCentroid(&sm, &r)
		// Region.Centroid routes through the pool; same kernel, same bits.
		if poolP, poolOK := r.Centroid(); poolOK != gotOK || poolP != got {
			t.Fatalf("region %d: Region.Centroid = %v,%v; sampler = %v,%v", i, poolP, poolOK, got, gotOK)
		}
		if gotOK != wantOK {
			okDisagree++
			continue
		}
		if !gotOK {
			continue
		}
		tight, _ := r.Tightest()
		rel = append(rel, Distance(got, want)/tight.RadiusKm)
	}
	sort.Float64s(rel)
	p50, p99, max := quantile(rel, 0.5), quantile(rel, 0.99), rel[len(rel)-1]
	t.Logf("%d regions, %d located by both: distance / tight radius p50 %.4f p90 %.4f p99 %.4f max %.3f; ok disagreements %d",
		iters, len(rel), p50, quantile(rel, 0.9), p99, max, okDisagree)
	if p50 > 0.01 || p99 > 0.08 || max > 1.5 {
		t.Errorf("kernel drifted from the legacy chain: p50 %.4f (<= 0.01) p99 %.4f (<= 0.08) max %.3f (<= 1.5)", p50, p99, max)
	}
	if okDisagree > iters/2000 {
		t.Errorf("%d of %d regions located by one side only, want <= %d", okDisagree, iters, iters/2000)
	}
}

// TestSamplerEmptyAndUnconstrained covers the false-returning paths.
func TestSamplerEmptyAndUnconstrained(t *testing.T) {
	var sm Sampler
	if _, ok := sm.Centroid(); ok {
		t.Fatal("empty sampler returned ok")
	}
	// Mutually inconsistent constraints: two small far-apart circles.
	sm.Reset()
	sm.Add(Circle{Center: Point{Lat: 0, Lon: 0}, RadiusKm: 10})
	sm.Add(Circle{Center: Point{Lat: 0, Lon: 90}, RadiusKm: 10})
	if _, ok := sm.Centroid(); ok {
		t.Fatal("inconsistent constraints returned ok")
	}
	var r Region
	r.Add(Circle{Center: Point{Lat: 0, Lon: 0}, RadiusKm: 10})
	r.Add(Circle{Center: Point{Lat: 0, Lon: 90}, RadiusKm: 10})
	if _, ok := r.Centroid(); ok {
		t.Fatal("Region.Centroid on inconsistent constraints returned ok")
	}
}

// TestSamplerReuse checks a sampler instance produces identical results
// across reuses (scratch state never leaks into results).
func TestSamplerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	regions := make([]Region, 50)
	for i := range regions {
		regions[i] = randRegion(rng)
	}
	var sm Sampler
	for i := range regions {
		p1, ok1 := samplerCentroid(&sm, &regions[i])
		p2, ok2 := samplerCentroid(&sm, &regions[i])
		if p1 != p2 || ok1 != ok2 {
			t.Fatalf("region %d: reuse changed result: %v,%v vs %v,%v", i, p1, ok1, p2, ok2)
		}
	}
}

// TestSamplerAllocs: all sampling scratch lives on the struct, and the
// reduction's sort (slices.SortFunc with a non-escaping comparator) boxes
// nothing, so a warm call allocates nothing at all.
func TestSamplerAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r := randRegion(rng)
	for len(r.Circles) < 6 {
		r = randRegion(rng)
	}
	lone := Region{Circles: r.Circles[:1]}
	var sm Sampler
	for _, tc := range []*Region{&lone, &r} {
		samplerCentroid(&sm, tc)
		if n := testing.AllocsPerRun(100, func() { samplerCentroid(&sm, tc) }); n != 0 {
			t.Errorf("%d circles: Centroid allocates %v times a call, want 0", len(tc.Circles), n)
		}
	}
}

// TestSamplerGrow: growing keeps what a sampler holds, and a fresh sampler
// grown to a region's size fills, reduces and samples it with a fixed
// number of allocations, one per buffer, where filling it ungrown pays one
// per doubling.
func TestSamplerGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := randRegion(rng)
	for len(r.Circles) < 6 {
		r = randRegion(rng)
	}
	want, wantOK := samplerCentroid(new(Sampler), &r)
	var sm Sampler
	for i, c := range r.Circles {
		sm.Add(c)
		sm.Grow(i)
	}
	if got, ok := sm.Centroid(); got != want || ok != wantOK {
		t.Fatalf("grown while filled: %v,%v, want %v,%v", got, ok, want, wantOK)
	}
	repeat := func(k int) []Circle {
		var cs []Circle
		for range k {
			cs = append(cs, r.Circles...)
		}
		return cs
	}
	fill := func(cs []Circle, grow bool) float64 {
		return testing.AllocsPerRun(10, func() {
			var sm Sampler
			if grow {
				sm.Grow(len(cs))
			}
			for _, c := range cs {
				sm.Add(c)
			}
			sm.Centroid()
		})
	}
	small, large := repeat(20), repeat(40)
	grown, grownLarge, ungrown := fill(small, true), fill(large, true), fill(small, false)
	if grown != grownLarge || grown >= ungrown {
		t.Errorf("grown: %v allocations at %d circles, %v at %d; ungrown: %v at %d; want the grown count fixed and below the ungrown one",
			grown, len(small), grownLarge, len(large), ungrown, len(small))
	}
}
