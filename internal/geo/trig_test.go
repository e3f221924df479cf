package geo

import (
	"math"
	"math/rand"
	"testing"
)

func randPoint(rng *rand.Rand) Point {
	return Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
}

// forCornerPairs calls f on the pairs where a distance or chord
// evaluation loses digits: coincident points, points 1e-9° apart,
// antipodes, the poles and the ±180° meridian.
func forCornerPairs(f func(a, b Point)) {
	const tiny = 1e-9 // degrees: a tenth of a millimetre
	for _, lat := range []float64{0, 37.5, -63, 89.999999, 90, -90} {
		for _, lon := range []float64{0, 12.25, 179.999999999, 180, -180} {
			p := Point{Lat: lat, Lon: lon}
			f(p, p)
			f(p, Point{Lat: lat, Lon: lon + tiny})
			f(p, Point{Lat: lat, Lon: lon - tiny})
			if lat+tiny <= 90 {
				f(p, Point{Lat: lat + tiny, Lon: lon})
			}
			if lat-tiny >= -90 {
				f(p, Point{Lat: lat - tiny, Lon: lon})
			}
			anti := Point{Lat: -lat, Lon: lon - 180}
			if anti.Lon < -180 {
				anti.Lon += 360
			}
			f(p, anti)
			f(p, Point{Lat: anti.Lat, Lon: anti.Lon + tiny})
			f(p, Point{Lat: lat, Lon: -lon}) // ±180° are one meridian
			f(p, Point{Lat: 90, Lon: lon + 77})
			f(p, Point{Lat: -90, Lon: lon - 77})
		}
	}
}

// twoSineS is the haversine term as the kernels wrote it before each
// half-angle sine was bound once: every sine called twice. It is the
// oracle the single-sine kernels must match bit for bit.
func twoSineS(a, b Trig) float64 {
	dlat := b.LatRad - a.LatRad
	dlon := b.LonRad - a.LonRad
	s := math.Sin(dlat/2)*math.Sin(dlat/2) +
		a.CosLat*b.CosLat*math.Sin(dlon/2)*math.Sin(dlon/2)
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// TestTrigDistanceBitIdentical holds Distance, TrigDistance and
// haversineS to the two-call oracle on random pairs and the corner pairs
// — the values must match bit for bit, not approximately.
func TestTrigDistanceBitIdentical(t *testing.T) {
	check := func(a, b Point) {
		t.Helper()
		ta, tb := MakeTrig(a), MakeTrig(b)
		wantS := twoSineS(ta, tb)
		want := 2 * EarthRadiusKm * math.Asin(math.Sqrt(wantS))
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"haversineS", haversineS(ta, tb), wantS},
			{"TrigDistance", TrigDistance(ta, tb), want},
			{"Distance", Distance(a, b), want},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s(%v, %v) = %v, want %v", c.name, a, b, c.got, c.want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	pairs := 1_000_000
	if testing.Short() {
		pairs = 100_000
	}
	for i := 0; i < pairs; i++ {
		check(randPoint(rng), randPoint(rng))
	}
	forCornerPairs(check)
}

// twoCallDestination is Destination as written before its sines and
// cosines were bound once: the oracle for TestDestinationBitIdentical.
func twoCallDestination(p Point, bearingDeg, distKm float64) Point {
	lat1, lon1, brng := deg2rad(p.Lat), deg2rad(p.Lon), deg2rad(bearingDeg)
	ad := distKm / EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) +
		math.Cos(lat1)*math.Sin(ad)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(math.Sin(brng)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2))
	lon2d := rad2deg(lon2)
	for lon2d > 180 {
		lon2d -= 360
	}
	for lon2d < -180 {
		lon2d += 360
	}
	return Point{Lat: rad2deg(lat2), Lon: lon2d}
}

// TestDestinationBitIdentical holds Destination to the two-call oracle
// on random starts, bearings and log-uniform distances, and on the corner
// points with the distance to the other point of each corner pair.
func TestDestinationBitIdentical(t *testing.T) {
	check := func(p Point, bearing, dist float64) {
		t.Helper()
		got, want := Destination(p, bearing, dist), twoCallDestination(p, bearing, dist)
		if math.Float64bits(got.Lat) != math.Float64bits(want.Lat) || math.Float64bits(got.Lon) != math.Float64bits(want.Lon) {
			t.Fatalf("Destination(%v, %v, %v) = %v, want %v", p, bearing, dist, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		check(randPoint(rng), rng.Float64()*360, math.Pow(10, -9+13.3*rng.Float64()))
	}
	forCornerPairs(func(a, b Point) {
		for _, bearing := range []float64{0, 90, 180, 270, 359.999999} {
			check(a, bearing, Distance(a, b))
		}
	})
}

// TestFanMatchesDestination holds every point of a Fan to Destination
// bit for bit, at the street-level sweep's bearing counts (1 and 7
// besides its 10 and 36) and at every k·step of both sweeps' steps up to
// 40 circles, from random centres, the poles and the ±180° meridian.
func TestFanMatchesDestination(t *testing.T) {
	centres := []Point{{90, 0}, {-90, 0}, {90, 180}, {0, 180}, {0, -180}, {45.5, 180}, {-45.5, -180},
		{89.999999, 179.999999}, {-89.999999, -179.999999}, {0, 0}}
	rng := rand.New(rand.NewSource(11))
	n := 1_000
	if testing.Short() {
		n = 100
	}
	for len(centres) < n {
		centres = append(centres, randPoint(rng))
	}
	for _, points := range []int{1, 7, 10, 36} {
		fan := NewFan(points)
		if fan.Len() != points {
			t.Fatalf("NewFan(%d).Len() = %d", points, fan.Len())
		}
		for _, c := range centres {
			around := fan.Around(c)
			for _, step := range []float64{1, 5} {
				for k := 1; k <= 40; k++ {
					ring := around.At(step * float64(k))
					for i := 0; i < points; i++ {
						got := ring.Point(i)
						want := Destination(c, 360*float64(i)/float64(points), step*float64(k))
						if math.Float64bits(got.Lat) != math.Float64bits(want.Lat) ||
							math.Float64bits(got.Lon) != math.Float64bits(want.Lon) {
							t.Fatalf("fan of %d around %v at %v km, point %d = %v, Destination %v",
								points, c, step*float64(k), i, got, want)
						}
					}
				}
			}
		}
	}
	if NewFan(0).Len() != 0 || NewFan(-3).Len() != 0 {
		t.Error("a fan of no bearings must be empty")
	}
}

// TestContainsTrigMatchesContains hammers the calibrated haversine-space
// predicate against Circle.Contains, concentrating on points near the
// circle boundary (Destination at the nominal radius scaled by factors a
// few ulps around 1), where any threshold miscalibration flips the
// verdict.
func TestContainsTrigMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	iters := 200000
	if testing.Short() {
		iters = 20000
	}
	checked, boundary := 0, 0
	for i := 0; i < iters; i++ {
		c := Circle{Center: randPoint(rng), RadiusKm: rng.Float64() * 2500}
		tc := MakeTrigCircle(c)
		var p Point
		switch i % 4 {
		case 0: // arbitrary point
			p = randPoint(rng)
		case 1: // nominally on the boundary
			p = Destination(c.Center, rng.Float64()*360, c.RadiusKm)
			boundary++
		case 2: // a few ulps around the boundary
			r := c.RadiusKm * (1 + (rng.Float64()-0.5)*1e-15)
			p = Destination(c.Center, rng.Float64()*360, r)
			boundary++
		default: // interior ring point, as the sampler generates them
			r := c.RadiusKm * float64(rng.Intn(16)+1) / 16
			p = Destination(c.Center, rng.Float64()*360, r)
		}
		want := c.Contains(p)
		got := tc.ContainsTrig(MakeTrig(p))
		if got != want {
			t.Fatalf("circle %+v point %v: ContainsTrig = %v, Contains = %v (dist %v)",
				c, p, got, want, Distance(c.Center, p))
		}
		checked++
	}
	if boundary == 0 || checked != iters {
		t.Fatalf("degenerate test: %d checks, %d boundary", checked, boundary)
	}
}

// TestContainsTrigEdgeRadii covers the special radii: zero, negative,
// NaN, and radii at or beyond half the Earth's circumference.
func TestContainsTrigEdgeRadii(t *testing.T) {
	center := Point{Lat: 10, Lon: 20}
	points := []Point{center, {Lat: 10, Lon: 20.0000001}, {Lat: -10, Lon: -160}, {Lat: 90, Lon: 0}}
	for _, r := range []float64{0, -1, math.NaN(), math.Pi * EarthRadiusKm, math.Pi*EarthRadiusKm + 1, 1e9} {
		c := Circle{Center: center, RadiusKm: r}
		tc := MakeTrigCircle(c)
		for _, p := range points {
			if got, want := tc.ContainsTrig(MakeTrig(p)), c.Contains(p); got != want {
				t.Fatalf("radius %v point %v: ContainsTrig = %v, Contains = %v", r, p, got, want)
			}
		}
	}
}

// TestLatBandHoldsEveryContainedPoint: a point ContainsTrig accepts lies
// inside the circle's LatBand. The boundary points are due north and due
// south of the centre, where a circle's latitude reach is widest, at its
// radius and a few ulps around it; radii run from zero past half the
// circumference, and centres include the poles.
func TestLatBandHoldsEveryContainedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	iters := 200000
	if testing.Short() {
		iters = 20000
	}
	half := math.Pi * EarthRadiusKm
	accepted := 0
	for i := 0; i < iters; i++ {
		center := randPoint(rng)
		switch i % 7 {
		case 0:
			center.Lat = 90
		case 1:
			center.Lat = -89.9999
		}
		var r float64
		switch i % 5 {
		case 0:
			r = rng.Float64() * 0.01
		case 1:
			r = rng.Float64() * 1.2 * half
		default:
			r = rng.Float64() * 3000
		}
		tc := MakeTrigCircle(Circle{Center: center, RadiusKm: r})
		lo, hi := tc.LatBand()
		var p Point
		switch i % 3 {
		case 0:
			p = randPoint(rng)
		default:
			brng := 0.0
			if i%2 == 0 {
				brng = 180
			}
			p = Destination(center, brng, r*(1+(rng.Float64()-0.5)*1e-14))
		}
		pt := MakeTrig(p)
		if !tc.ContainsTrig(pt) {
			continue
		}
		accepted++
		if pt.LatRad < lo || pt.LatRad > hi {
			t.Fatalf("circle %v r=%v accepts %v (lat %v rad) outside its band [%v, %v]", center, r, p, pt.LatRad, lo, hi)
		}
	}
	if accepted < iters/4 {
		t.Fatalf("only %d of %d points accepted", accepted, iters)
	}
	for _, r := range []float64{-1, math.NaN()} {
		if lo, hi := MakeTrigCircle(Circle{RadiusKm: r}).LatBand(); lo <= hi {
			t.Errorf("radius %v: band [%v, %v], want empty", r, lo, hi)
		}
	}
}

// TestSMaxMonotoneBoundary checks the calibration invariant directly: the
// distance of sMax itself fits the radius, and the next representable s
// does not (unless sMax is already 1).
func TestSMaxMonotoneBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		r := rng.Float64() * 3000
		s := sMaxForRadius(r)
		if s < 0 || s > 1 {
			t.Fatalf("radius %v: sMax %v out of range", r, s)
		}
		if sDistance(s) > r {
			t.Fatalf("radius %v: sMax %v maps to distance %v > radius", r, s, sDistance(s))
		}
		if s < 1 {
			if next := math.Nextafter(s, 2); sDistance(next) <= r {
				t.Fatalf("radius %v: sMax %v not maximal (next %v still fits)", r, s, next)
			}
		}
	}
}

// TestTrigCutsMatchesDistance drives TrigCuts through random and
// boundary-adversarial (ra, rb) pairs and demands the verdict match the
// original expression exactly, including on radii constructed to sit
// within one ulp of the decision boundary, where the envelope screens
// must hand off to the exact evaluation.
func TestTrigCutsMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		a, b := MakeTrig(randPoint(rng)), MakeTrig(randPoint(rng))
		if i%4 == 0 { // identical latitudes exercise the Δlat-screen skips
			// Copy the cosine too: a Trig's CosLat is defined to be
			// cos(LatRad) (every constructor guarantees it, and the
			// meridian+parallel screen relies on it).
			b.LatRad, b.CosLat = a.LatRad, a.CosLat
		}
		ra := rng.Float64() * 1000
		var rb float64
		switch i % 5 {
		case 0:
			rb = rng.Float64() * 25000
		case 1: // exactly on the boundary
			rb = TrigDistance(a, b) + ra
		case 2: // one ulp below
			rb = math.Nextafter(TrigDistance(a, b)+ra, -1)
		case 3: // one ulp above
			rb = math.Nextafter(TrigDistance(a, b)+ra, math.Inf(1))
		default: // inside the inconclusive band
			rb = TrigDistance(a, b)*(0.8+0.4*rng.Float64()) + ra
		}
		want := !(TrigDistance(a, b)+ra <= rb)
		if got := TrigCuts(a, b, ra, rb); got != want {
			t.Fatalf("TrigCuts mismatch: a=%+v b=%+v ra=%v rb=%v got=%v want=%v",
				a, b, ra, rb, got, want)
		}
	}
}

// TestChordLowerBound is the property core's stream VP selection rests
// on: ChordLowerBoundKm never exceeds the computed TrigDistance, on
// uniform pairs, on pairs at log-uniform separations from a micrometre
// to the antipode (uniform pairs are almost never close, and close is
// where the chord is tight), and on the corners where either evaluation
// loses digits. It also pins the bound from below, so a bound that is
// merely small cannot pass.
func TestChordLowerBound(t *testing.T) {
	check := func(a, b Point) {
		t.Helper()
		ta, tb := MakeTrig(a), MakeTrig(b)
		d := TrigDistance(ta, tb)
		lb := ChordLowerBoundKm(ta.Unit(), tb.Unit())
		if !(lb <= d) {
			t.Fatalf("chord bound %v exceeds TrigDistance %v for %v, %v", lb, d, a, b)
		}
		if rev := ChordLowerBoundKm(tb.Unit(), ta.Unit()); rev != lb {
			t.Fatalf("chord bound not symmetric for %v, %v: %v vs %v", a, b, lb, rev)
		}
		// The squared-chord screen: a cut at km just below the bound must
		// pass the pair, and no cut at or above the bound may.
		sq := ChordSq(ta.Unit(), tb.Unit())
		for _, km := range []float64{lb, math.Nextafter(lb, -1), lb * (1 - 1e-12), lb*(1-1e-8) - 1e-12, d} {
			if sq > ChordSqBeyondKm(km) && !(lb > km) {
				t.Fatalf("squared chord %v passes the cut for %v km, but the chord bound is %v for %v, %v", sq, km, lb, a, b)
			}
		}
		if lb > 1e-3 && !(sq > ChordSqBeyondKm(lb*(1-1e-8))) {
			t.Fatalf("squared chord %v misses the cut 1e-8 below its own bound %v for %v, %v", sq, lb, a, b)
		}
		// The chord of an arc θ is short by θ²/24 of it; allow twice that,
		// the margin and the pad.
		theta := d / EarthRadiusKm
		if floor := d*(1-theta*theta/12-2*distBoundMargin) - 2*chordPadKm; lb < floor {
			t.Fatalf("chord bound %v uselessly far below TrigDistance %v for %v, %v", lb, d, a, b)
		}
	}

	rng := rand.New(rand.NewSource(5))
	pairs := 1_000_000
	if testing.Short() {
		pairs = 100_000
	}
	for i := 0; i < pairs; i++ {
		a := randPoint(rng)
		if i%2 == 0 {
			check(a, randPoint(rng))
			continue
		}
		// 1e-9 km .. ~20,000 km, log-uniform.
		dist := math.Pow(10, -9+13.3*rng.Float64())
		check(a, Destination(a, rng.Float64()*360, dist))
	}
	forCornerPairs(check)
}

// TestRingLowerBound is the property core's ring stop rests on: for a
// centre c, a VP v and a target t, RingLowerBoundKm(|v−c|, |t−c|) never
// exceeds the computed TrigDistance(v, t). Targets sit within a city
// radius (≤ 100 km) of the centre, as MeasureTarget draws them; VPs are
// uniform, at log-uniform distances from the centre, or on the target's
// own bearing beyond it — nearly collinear, where the triangle
// inequality is tight and the bound is pinned from below too. The corner
// pairs then stand in for every role.
func TestRingLowerBound(t *testing.T) {
	check := func(c, v, tp Point) (lb, d float64) {
		t.Helper()
		cu, vt, tt := MakeTrig(c).Unit(), MakeTrig(v), MakeTrig(tp)
		lb = RingLowerBoundKm(ChordKm(vt.Unit(), cu), ChordKm(tt.Unit(), cu))
		d = TrigDistance(vt, tt)
		if !(lb <= d) {
			t.Fatalf("ring bound %v exceeds TrigDistance %v for centre %v, VP %v, target %v", lb, d, c, v, tp)
		}
		return lb, d
	}

	rng := rand.New(rand.NewSource(6))
	triples := 1_000_000
	if testing.Short() {
		triples = 100_000
	}
	for i := 0; i < triples; i++ {
		c := randPoint(rng)
		bearing := rng.Float64() * 360
		rt := 100 * math.Sqrt(rng.Float64())
		tp := Destination(c, bearing, rt)
		switch i % 3 {
		case 0:
			check(c, randPoint(rng), tp)
		case 1: // 1e-9 km .. ~20,000 km, log-uniform.
			check(c, Destination(c, rng.Float64()*360, math.Pow(10, -9+13.3*rng.Float64())), tp)
		default: // 1 mm .. 10,000 km past the target, same bearing
			beyond := math.Pow(10, -6+10*rng.Float64())
			lb, d := check(c, Destination(c, bearing, rt+beyond), tp)
			// Chords along one great circle fall short of the arc by about
			// (θ_v+θ_t)²/32 of it; within 2,000 km that is < 0.4 %.
			if rt+beyond <= 2000 && lb < d*0.99-2*chordPadKm {
				t.Fatalf("ring bound %v uselessly far below TrigDistance %v (target %v km out, VP %v km beyond)", lb, d, rt, beyond)
			}
		}
	}
	forCornerPairs(func(a, b Point) {
		check(a, b, a)
		check(a, a, b)
		check(b, a, b)
	})
}
